//! Per-bucket subtree construction.
//!
//! A sequential linear-time suffix-tree algorithm (Ukkonen/McCreight)
//! cannot be used here because a bucket holds an arbitrary *subset* of
//! each string's suffixes. The paper instead scans the bucket's suffixes
//! one character at a time, recursively subdividing until every group of
//! identical suffixes has its own leaf — `O(bucket size · l)` work, which
//! is fine because the average EST length `l` does not grow with `n`.
//!
//! Engineering refinements keep the constant small on the 5-letter
//! alphabet (in the spirit of the cache-conscious suffix-structure work
//! surveyed in PAPERS.md):
//!
//! * **Counting-sort subdivision.** Each branching node partitions its
//!   group with a stable 5-way counting sort (end-of-string + A/C/G/T)
//!   through a reusable scratch buffer. The counting pass keeps each
//!   suffix's class, so the scatter pass does not read the text again.
//! * **Multi-character skip.** A group sharing a k-character common
//!   prefix advances its depth by k in one longest-common-extension scan
//!   instead of recursing (and re-classifying) once per character. The
//!   scan compares 8 bytes at a time.
//! * **Exact-size output.** A subtree is built in reused scratch and
//!   copied out at its final size.
//!
//! The same recursion builds the full subtree of a bucket and the
//! in-scope part of it ([`crate::forest::build_in_scope_batch`]): given a
//! floor ψ, it emits no node shallower than ψ and no single-suffix leaf
//! whose parent is shallower than ψ. Given a new-string floor `fresh` as
//! well, it emits only the DFS ranges that hold a suffix of a string with
//! id `≥ fresh`.

use crate::bucket::{SuffixRef, Tagged};
use crate::tree::{Node, Subtree};
use pace_seq::{SequenceStore, StrId};

/// Reusable build scratch, grown once per thread/rank to the largest
/// bucket it ever builds and shared across every build call, so the hot
/// path allocates only the finished subtrees.
#[derive(Debug, Default)]
pub struct BuildScratch {
    /// The group being subdivided.
    group: Vec<SuffixRef>,
    sort: SortScratch,
    /// The subtree under construction, copied out at its final size.
    tree: Subtree,
}

/// The counting sort's scatter buffer and cached classes.
#[derive(Debug, Default)]
struct SortScratch {
    buf: Vec<SuffixRef>,
    class: Vec<u8>,
}

impl BuildScratch {
    /// Empty scratch; the first build grows it to its bucket's size.
    pub fn new() -> Self {
        BuildScratch::default()
    }

    /// The full subtree of one bucket's suffixes, which share their
    /// first `w` characters.
    pub(crate) fn build_full(
        &mut self,
        store: &SequenceStore,
        bucket: u32,
        suffixes: impl Iterator<Item = SuffixRef>,
        w: usize,
    ) -> Subtree {
        self.group.clear();
        self.group.extend(suffixes);
        if !self.group.is_empty() {
            build_group(
                store,
                &mut self.tree,
                &mut self.group,
                w,
                0,
                0,
                &mut self.sort,
            );
        }
        self.take(bucket)
    }

    /// The in-scope part of one bucket's subtree: `entries` are the
    /// bucket's suffixes at least ψ long, tagged with their first
    /// `tag_len = min(ψ, 32)` bases. Returns `None` when no ψ-prefix of
    /// the bucket occurs twice, or none that does holds a new suffix.
    ///
    /// A stable sort by tag groups the suffixes by their `tag_len`-prefix,
    /// in the order the full tree would list them, and keeps each group in
    /// scatter order. A tag that occurs once is a lone leaf under a parent
    /// shallower than ψ and is dropped; so is, when `fresh > 0`, a group
    /// with no suffix of a string with id `≥ fresh`. Every other group
    /// becomes one DFS range built from depth `tag_len`.
    pub(crate) fn build_in_scope(
        &mut self,
        store: &SequenceStore,
        bucket: u32,
        entries: &mut [Tagged],
        tag_len: usize,
        psi: usize,
        fresh: u32,
    ) -> Option<Subtree> {
        entries.sort_by_key(|e| e.tag);
        for run in entries.chunk_by(|a, b| a.tag == b.tag) {
            if run.len() < 2 || !holds_fresh(fresh, run.iter().map(|e| e.suf)) {
                continue;
            }
            self.group.clear();
            self.group.extend(run.iter().map(|e| e.suf));
            build_group(
                store,
                &mut self.tree,
                &mut self.group,
                tag_len,
                psi,
                fresh,
                &mut self.sort,
            );
        }
        (!self.tree.is_empty()).then(|| self.take(bucket))
    }

    /// Copy the finished subtree out at its exact size and reset.
    fn take(&mut self, bucket: u32) -> Subtree {
        let tree = Subtree::from_parts(
            bucket,
            self.tree.nodes.to_vec(),
            self.tree.suffixes.to_vec(),
        );
        self.tree.nodes.clear();
        self.tree.suffixes.clear();
        tree
    }
}

/// Build the subtree for one bucket.
///
/// `suffixes` are the bucket's suffix occurrences; they must all share the
/// same first `w` characters (the bucket invariant). `w` is the bucket
/// window size — subdivision starts at depth `w` since the shared prefix
/// is already known. An empty bucket yields an empty subtree.
///
/// One-off convenience over [`build_subtree_with`]; callers building many
/// buckets should hold a [`BuildScratch`] and reuse it.
pub fn build_subtree(
    store: &SequenceStore,
    bucket: u32,
    suffixes: Vec<SuffixRef>,
    w: usize,
) -> Subtree {
    build_subtree_with(store, bucket, &suffixes, w, &mut BuildScratch::new())
}

/// [`build_subtree`] through a caller-owned scratch, so a rank building
/// its whole bucket set reuses one allocation throughout.
pub fn build_subtree_with(
    store: &SequenceStore,
    bucket: u32,
    suffixes: &[SuffixRef],
    w: usize,
    scratch: &mut BuildScratch,
) -> Subtree {
    debug_assert!(
        suffixes.first().is_none_or(|s0| {
            let first = &s0.bytes(store)[..w];
            suffixes.iter().all(|s| &s.bytes(store)[..w] == first)
        }),
        "bucket invariant violated: differing {w}-prefixes"
    );
    scratch.build_full(store, bucket, suffixes.iter().copied(), w)
}

/// The character of `suf` at string-depth `d`, or `None` past its end.
#[inline]
fn char_at(store: &SequenceStore, suf: SuffixRef, d: usize) -> Option<u8> {
    store
        .suffix(StrId(suf.sid), suf.off as usize)
        .get(d)
        .copied()
}

/// Whether a group may emit a pair under the new-string floor `fresh`:
/// with `fresh > 0`, only a group holding a suffix of a string with id
/// `≥ fresh` can. `fresh = 0` keeps every group without a scan.
#[inline]
fn holds_fresh(fresh: u32, mut group: impl Iterator<Item = SuffixRef>) -> bool {
    fresh == 0 || group.any(|suf| suf.sid >= fresh)
}

/// Length of the longest common prefix of `a` and `b`, 8 bytes at a time.
#[inline]
fn lce(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        if x != y {
            // Little-endian: the lowest differing byte is the first.
            return i + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Recursively build the subtree of a group of suffixes sharing a prefix
/// of length `d`, appending nodes in DFS order.
///
/// Nodes shallower than `psi` are not emitted: a branch shallower than
/// `psi` hands each child group of two or more suffixes on as a DFS range of
/// its own and drops its single-suffix children, which are lone leaves
/// that can never emit a pair. Every suffix of the group must then be at
/// least `psi` long. `psi = 0` builds the full subtree. Such a branch also
/// drops the child groups that fail [`holds_fresh`], so every range it
/// hands on holds a suffix of a string with id `≥ fresh`; the caller checks
/// the group itself.
fn build_group(
    store: &SequenceStore,
    tree: &mut Subtree,
    group: &mut [SuffixRef],
    mut d: usize,
    psi: usize,
    fresh: u32,
    sort: &mut SortScratch,
) {
    debug_assert!(!group.is_empty());

    // Singleton group: a leaf at the suffix's full length.
    if group.len() == 1 {
        push_leaf(tree, group);
        return;
    }
    if group.len() == 2 {
        build_pair(store, tree, group, d, psi);
        return;
    }

    // Multi-character skip: advance past the group's longest common
    // extension in one scan. The old per-character loop re-classified the
    // whole group once per shared character; here a group sharing a
    // k-character prefix costs one length-k comparison per member.
    let first = &group[0].bytes(store)[d..];
    let mut k = first.len();
    for suf in &group[1..] {
        k = lce(&first[..k], &suf.bytes(store)[d..]);
        if k == 0 {
            break;
        }
    }
    d += k;

    // Classify the group by the character at depth d: end-of-string (the
    // implicit terminator) is class 0 and sorts first, then A, C, G, T.
    // The classes are kept for the scatter below. The skip was maximal,
    // so either every suffix ends here or at least two classes are
    // non-empty.
    let mut counts = [0usize; 5];
    sort.class.clear();
    for &suf in group.iter() {
        let class = char_at(store, suf, d).map_or(0, |c| code_of(c) as u8 + 1);
        counts[class as usize] += 1;
        sort.class.push(class);
    }
    let ends = counts[0];
    debug_assert!(
        d >= psi || ends == 0,
        "a suffix shorter than psi reached the builder"
    );
    if ends == group.len() {
        // Every suffix ends here: one leaf of identical suffixes.
        push_leaf(tree, group);
        return;
    }
    debug_assert!(
        counts.iter().filter(|&&c| c > 0).count() >= 2,
        "skip stopped short of the branch point"
    );

    // A real branch: emit the internal node now (DFS order: parent
    // first), then its children, then patch the rightmost pointer. A
    // branch shallower than ψ is not emitted; its children become ranges
    // of their own.
    let emit = d >= psi;
    let node_idx = tree.nodes.len();
    if emit {
        tree.nodes.push(Node::internal(0, d as u32)); // rightmost patched below
    }

    // Stable 5-way counting sort of the group: ends first, then A, C, G,
    // T — this is the child order, matching the representation's
    // "children sorted by branching character" invariant. One scatter
    // through the reusable buffer, by the cached classes.
    sort.buf.clear();
    sort.buf.extend_from_slice(group);
    let mut pos = [0usize; 5];
    for c in 1..5 {
        pos[c] = pos[c - 1] + counts[c - 1];
    }
    for (&suf, &class) in sort.buf.iter().zip(&sort.class) {
        group[pos[class as usize]] = suf;
        pos[class as usize] += 1;
    }
    debug_assert_eq!(pos[4], group.len());

    let mut start = 0usize;
    for (class, &len) in counts.iter().enumerate() {
        let sub = &mut group[start..start + len];
        start += len;
        if len == 0 || (!emit && (len == 1 || !holds_fresh(fresh, sub.iter().copied()))) {
            // No child, a lone leaf under a parent shallower than ψ, or a
            // range with no new suffix.
            continue;
        }
        if class == 0 {
            push_leaf(tree, sub); // the end-of-string child
        } else {
            build_group(store, tree, sub, d + 1, psi, fresh, sort);
        }
    }
    debug_assert_eq!(start, group.len());

    if emit {
        let last = (tree.nodes.len() - 1) as u32;
        tree.nodes[node_idx].set_rightmost(last);
    }
}

/// [`build_group`] for a group of two: one scan finds the branch point,
/// and no counting sort is needed.
fn build_pair(
    store: &SequenceStore,
    tree: &mut Subtree,
    group: &mut [SuffixRef],
    d: usize,
    psi: usize,
) {
    let (a, b) = (&group[0].bytes(store)[d..], &group[1].bytes(store)[d..]);
    let k = lce(a, b);
    let class = |s: &[u8]| s.get(k).map_or(0, |&c| code_of(c) + 1);
    let (ca, cb) = (class(a), class(b));
    let d = d + k;
    if ca == cb {
        // The scan was maximal, so both suffixes end here.
        push_leaf(tree, group);
        return;
    }
    if d < psi {
        return; // two lone leaves under a parent shallower than ψ
    }
    let idx = tree.nodes.len() as u32;
    tree.nodes.push(Node::internal(idx + 2, d as u32));
    if ca > cb {
        group.swap(0, 1);
    }
    push_leaf(tree, &group[..1]);
    push_leaf(tree, &group[1..]);
}

/// 2-bit class of a stored base. Non-ACGT bytes cannot occur in a store
/// that went through [`SequenceStore`] insertion validation; a corrupt or
/// hand-assembled store trips the debug assertion in test builds and maps
/// to class 0 in release builds instead of aborting the whole run (the
/// typed rejection happens upstream, at store construction).
#[inline]
fn code_of(c: u8) -> usize {
    match c {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        b'T' => 3,
        other => {
            debug_assert!(
                false,
                "non-DNA byte {other:#04x} reached the GST builder; \
                 store insertion should have rejected it"
            );
            0
        }
    }
}

/// Reference subdivision using the pre-rewrite per-character recursion
/// and comparison sort. Kept (not `cfg(test)`) so the equivalence
/// property test and the `gst_subdivision` criterion group can hold the
/// counting-sort builder to byte-identical output and measure the gap.
#[doc(hidden)]
pub fn build_subtree_comparison_sort(
    store: &SequenceStore,
    bucket: u32,
    mut suffixes: Vec<SuffixRef>,
    w: usize,
) -> Subtree {
    let mut tree = Subtree {
        bucket,
        nodes: Vec::with_capacity(suffixes.len() * 2),
        suffixes: Vec::with_capacity(suffixes.len()),
    };
    if suffixes.is_empty() {
        return tree;
    }
    build_group_comparison(store, &mut tree, &mut suffixes, w);
    tree
}

fn build_group_comparison(
    store: &SequenceStore,
    tree: &mut Subtree,
    group: &mut [SuffixRef],
    mut d: usize,
) {
    if group.len() == 1 {
        push_leaf(tree, group);
        return;
    }
    loop {
        let mut ends = 0usize;
        let mut counts = [0usize; 4];
        for &suf in group.iter() {
            match char_at(store, suf, d) {
                None => ends += 1,
                Some(c) => counts[code_of(c)] += 1,
            }
        }
        let branching = usize::from(ends > 0) + counts.iter().filter(|&&c| c > 0).count();
        if branching == 1 {
            if ends > 0 {
                push_leaf(tree, group);
                return;
            }
            d += 1;
            continue;
        }
        let node_idx = tree.nodes.len();
        tree.nodes.push(Node::internal(0, d as u32));
        group.sort_by_key(|&suf| match char_at(store, suf, d) {
            None => 0u8,
            Some(c) => code_of(c) as u8 + 1,
        });
        let mut start = 0usize;
        if ends > 0 {
            let (end_group, _) = group.split_at_mut(ends);
            push_leaf(tree, end_group);
            start = ends;
        }
        for &len in counts.iter() {
            if len == 0 {
                continue;
            }
            build_group_comparison(store, tree, &mut group[start..start + len], d + 1);
            start += len;
        }
        let last = (tree.nodes.len() - 1) as u32;
        tree.nodes[node_idx].set_rightmost(last);
        return;
    }
}

/// Append a leaf holding `group`, identical suffixes that end at the
/// leaf. Its depth is their length, so the node keeps only its arena run.
fn push_leaf(tree: &mut Subtree, group: &[SuffixRef]) {
    let start = tree.suffixes.len() as u32;
    tree.suffixes.extend_from_slice(group);
    let idx = tree.nodes.len() as u32;
    tree.nodes
        .push(Node::leaf(idx, start..tree.suffixes.len() as u32));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::scatter;
    use crate::partition::count_buckets;
    use pace_seq::SequenceStore;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn store(ests: &[&[u8]]) -> SequenceStore {
        SequenceStore::from_ests(ests).unwrap()
    }

    /// Every non-empty bucket's key and suffixes for window `w`.
    fn per_bucket(store: &SequenceStore, w: usize) -> Vec<(u32, Vec<SuffixRef>)> {
        let counts = count_buckets(store, w);
        let buckets: Vec<u32> = (0..counts.len() as u32)
            .filter(|&b| counts[b as usize] > 0)
            .collect();
        let scattered = scatter(store, w, &counts, &buckets, w);
        buckets
            .into_iter()
            .zip(scattered.ranges)
            .map(|(b, r)| (b, scattered.entries[r].iter().map(|e| e.suf).collect()))
            .collect()
    }

    /// Build every bucket's subtree for window `w`.
    fn build_all(store: &SequenceStore, w: usize) -> Vec<Subtree> {
        per_bucket(store, w)
            .into_iter()
            .map(|(b, sufs)| build_subtree(store, b, sufs, w))
            .collect()
    }

    /// Collect (suffix bytes → count) across all leaves of all subtrees.
    fn leaf_census(store: &SequenceStore, trees: &[Subtree]) -> BTreeMap<Vec<u8>, usize> {
        let mut census = BTreeMap::new();
        for t in trees {
            for v in 0..t.len() as u32 {
                if t.is_leaf(v) {
                    for suf in t.leaf_suffixes(v) {
                        *census.entry(suf.bytes(store).to_vec()).or_insert(0) += 1;
                    }
                }
            }
        }
        census
    }

    /// Expected census computed directly from the store.
    fn expected_census(store: &SequenceStore, w: usize) -> BTreeMap<Vec<u8>, usize> {
        let mut census = BTreeMap::new();
        for sid in store.str_ids() {
            let seq = store.seq(sid);
            for off in 0..seq.len().saturating_sub(w - 1) {
                *census.entry(seq[off..].to_vec()).or_insert(0) += 1;
            }
        }
        census
    }

    #[test]
    fn single_string_tree_is_valid() {
        let s = store(&[b"GATTACA"]);
        for w in 1..=3 {
            let trees = build_all(&s, w);
            for t in &trees {
                t.validate(&s).unwrap();
            }
            assert_eq!(leaf_census(&s, &trees), expected_census(&s, w));
        }
    }

    #[test]
    fn identical_strings_share_leaves() {
        let s = store(&[b"ACGTACGT", b"ACGTACGT"]);
        let trees = build_all(&s, 2);
        for t in &trees {
            t.validate(&s).unwrap();
        }
        // The full suffix "ACGTACGT" occurs 4 times (2 strings × 2 strands,
        // all identical because the string is its own revcomp) and they
        // must share a single leaf.
        let census = leaf_census(&s, &trees);
        assert_eq!(census[&b"ACGTACGT".to_vec()], 4);
        let mut leaf_sizes = Vec::new();
        for t in &trees {
            for v in 0..t.len() as u32 {
                if t.is_leaf(v) && t.leaf_suffixes(v)[0].bytes(&s) == b"ACGTACGT" {
                    leaf_sizes.push(t.leaf_suffixes(v).len());
                }
            }
        }
        assert_eq!(leaf_sizes, vec![4], "identical suffixes must share a leaf");
    }

    #[test]
    fn repetitive_string_compresses_paths() {
        let s = store(&[b"AAAAAAAA"]);
        let trees = build_all(&s, 1);
        // Forward strand is all-A, reverse complement all-T: exactly the
        // "A" and "T" buckets are non-empty.
        assert_eq!(trees.len(), 2);
        for t in &trees {
            t.validate(&s).unwrap();
        }
        // Suffix lengths 1..8 occur once per strand.
        let census = leaf_census(&s, trees.as_slice());
        for len in 1..=8 {
            assert_eq!(census[&vec![b'A'; len]], 1);
            assert_eq!(census[&vec![b'T'; len]], 1);
        }
    }

    #[test]
    fn empty_bucket_yields_empty_subtree() {
        let s = store(&[b"AAAA"]);
        let t = build_subtree(&s, 3, Vec::new(), 2);
        assert!(t.is_empty());
        assert_eq!(t.num_suffixes(), 0);
        t.validate(&s).unwrap();
    }

    #[test]
    fn depths_increase_along_root_path() {
        let s = store(&[b"ACGTGCA", b"TGCAGGT", b"CCATACG"]);
        for t in build_all(&s, 2) {
            t.validate(&s).unwrap();
            // Walk from root to every node via children; child depth >
            // parent depth except the terminator leaf (==).
            let mut stack = vec![t.root()];
            while let Some(v) = stack.pop() {
                for c in t.children(v) {
                    let (dc, dv) = (t.depth(&s, c), t.depth(&s, v));
                    assert!(
                        dc > dv || (dc == dv && t.is_leaf(c)),
                        "child {c} depth {dc} vs parent {v} depth {dv}"
                    );
                    stack.push(c);
                }
            }
        }
    }

    #[test]
    fn children_iterator_covers_subtree_exactly() {
        let s = store(&[b"ACGTGCAACC", b"GTTACGTAAC"]);
        for t in build_all(&s, 1) {
            // DFS via children() must enumerate each node exactly once.
            let mut seen = vec![false; t.len()];
            let mut stack = vec![t.root()];
            while let Some(v) = stack.pop() {
                assert!(!seen[v as usize], "node {v} visited twice");
                seen[v as usize] = true;
                for c in t.children(v) {
                    stack.push(c);
                }
            }
            assert!(seen.iter().all(|&x| x), "nodes unreachable via children()");
        }
    }

    #[test]
    fn path_labels_are_prefixes_of_leaf_suffixes() {
        let s = store(&[b"GATTACAGGA", b"TTACCAGAT"]);
        for t in build_all(&s, 2) {
            for v in 0..t.len() as u32 {
                let label = t.path_label(&s, v).to_vec();
                assert_eq!(label.len(), t.depth(&s, v) as usize);
                // Every suffix below v starts with v's label.
                let mut stack = vec![v];
                while let Some(u) = stack.pop() {
                    for suf in t.leaf_suffixes(u) {
                        assert!(suf.bytes(&s).starts_with(&label));
                    }
                    for c in t.children(u) {
                        stack.push(c);
                    }
                }
            }
        }
    }

    fn dna_ests() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
                1..40,
            ),
            1..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For arbitrary inputs and windows: every structural invariant
        /// holds and the leaves cover exactly the in-scope suffix multiset.
        #[test]
        fn arbitrary_trees_are_valid(ests in dna_ests(), w in 1usize..4) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let trees = build_all(&s, w);
            for t in &trees {
                t.validate(&s).unwrap();
            }
            prop_assert_eq!(leaf_census(&s, &trees), expected_census(&s, w));
        }

        /// The counting-sort + multi-character-skip builder is
        /// byte-identical to the comparison-sort reference: same DFS node
        /// arrays, same depths, same suffix arena layout.
        #[test]
        fn counting_sort_matches_comparison_sort(ests in dna_ests(), w in 1usize..4) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let mut scratch = BuildScratch::new();
            for (b, sufs) in per_bucket(&s, w) {
                let reference = build_subtree_comparison_sort(&s, b, sufs.clone(), w);
                let fast = build_subtree_with(&s, b, &sufs, w, &mut scratch);
                prop_assert_eq!(&fast, &reference, "bucket {} diverged", b);
            }
        }

        /// The word-at-a-time scan agrees with a byte-by-byte one,
        /// whatever the offsets of the two slices.
        #[test]
        fn lce_matches_bytewise_scan(
            a in proptest::collection::vec(proptest::sample::select(vec![b'A', b'C']), 0..40),
            b in proptest::collection::vec(proptest::sample::select(vec![b'A', b'C']), 0..40),
        ) {
            let slow = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
            prop_assert_eq!(lce(&a, &b), slow);
        }

        /// Node count is linear: a compacted trie over m suffix
        /// occurrences has at most 2·(distinct suffixes) nodes per bucket.
        #[test]
        fn node_count_is_linear(ests in dna_ests()) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let trees = build_all(&s, 2);
            for t in &trees {
                let distinct: std::collections::BTreeSet<Vec<u8>> = (0..t.len() as u32)
                    .filter(|&v| t.is_leaf(v))
                    .map(|v| t.leaf_suffixes(v)[0].bytes(&s).to_vec())
                    .collect();
                prop_assert!(t.len() <= 2 * distinct.len().max(1));
            }
        }
    }
}
