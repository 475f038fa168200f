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
//! * **2-bit words.** Each member of a group carries its next 32 bases as
//!   a `u64` of 2-bit codes, plus its suffix length. A member's word is
//!   refilled from the text only when its group's extension crosses the
//!   32-base window, so a suffix's text is read once per 32 bases of
//!   depth instead of on every branch. ERA (arXiv:1109.6884) fetches a
//!   range of symbols per suffix per pass for the same reason.
//! * **Multi-character skip.** A group sharing a k-character common
//!   prefix advances its depth by k in one pass over its words instead of
//!   recursing (and re-classifying) once per character: each member costs
//!   one XOR against the first member's word and a count of leading
//!   zeros, and the extension stops at the shortest suffix's end.
//! * **Counting-sort subdivision.** Each branching node partitions its
//!   group with a stable 5-way counting sort (end-of-string + A/C/G/T)
//!   through a reusable scratch buffer. A member's class is two bits of
//!   its word; the counting pass keeps it for the scatter pass.
//! * **Exact-size output.** A subtree is built in reused scratch and
//!   copied out at its final size.
//!
//! One recursion (`subdivide`) builds the full subtree of a bucket and
//! the in-scope part of it ([`crate::forest::build_in_scope_batch`]):
//! given a floor ψ, it emits no node shallower than ψ and no single-suffix
//! leaf whose parent is shallower than ψ. Given a new-string floor `fresh`
//! as well, it emits only the DFS ranges that hold a suffix of a string
//! with id `≥ fresh`.

use crate::bucket::{SuffixRef, Tagged};
use crate::tree::{Node, Subtree};
use pace_seq::SequenceStore;

/// Reusable build scratch, grown once per thread/rank to the largest
/// bucket it ever builds and shared across every build call, so the hot
/// path allocates only the finished subtrees.
#[derive(Debug, Default)]
pub struct BuildScratch {
    /// The group being subdivided.
    group: Vec<Member>,
    sort: SortScratch,
    /// The subtree under construction, copied out at its final size.
    tree: Subtree,
}

/// The counting sort's scatter buffer and cached classes.
#[derive(Debug, Default)]
struct SortScratch {
    buf: Vec<Member>,
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
        let text = Text::of(store);
        self.group.clear();
        self.group.extend(suffixes.map(|suf| text.member(suf, w)));
        if !self.group.is_empty() {
            let scope = Scope {
                text: text.bases,
                psi: 0,
                fresh: 0,
            };
            subdivide(scope, &mut self.tree, &mut self.group, w, w, &mut self.sort);
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
        let text = Text::of(store);
        let scope = Scope {
            text: text.bases,
            psi,
            fresh,
        };
        entries.sort_by_key(|e| e.tag);
        for run in entries.chunk_by(|a, b| a.tag == b.tag) {
            if run.len() < 2 || !holds_fresh(fresh, run.iter().map(|e| e.suf)) {
                continue;
            }
            self.group.clear();
            self.group
                .extend(run.iter().map(|e| text.member(e.suf, tag_len)));
            let (group, sort) = (&mut self.group, &mut self.sort);
            subdivide(scope, &mut self.tree, group, tag_len, tag_len, sort);
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

/// Whether a group may emit a pair under the new-string floor `fresh`:
/// with `fresh > 0`, only a group holding a suffix of a string with id
/// `≥ fresh` can. `fresh = 0` keeps every group without a scan.
#[inline]
fn holds_fresh(fresh: u32, mut group: impl Iterator<Item = SuffixRef>) -> bool {
    fresh == 0 || group.any(|suf| suf.sid() >= fresh)
}

/// Bases a [`Member`]'s word holds: 32 two-bit codes fill a `u64`.
const WORD_BASES: usize = 32;

/// The store's raw text and offset table, from which group members are
/// made and refilled.
#[derive(Clone, Copy)]
struct Text<'s> {
    bases: &'s [u8],
    offsets: &'s [u32],
}

impl<'s> Text<'s> {
    fn of(store: &'s SequenceStore) -> Self {
        let (bases, offsets) = store.as_raw_parts();
        Text { bases, offsets }
    }

    /// `suf` as a group member, its word loaded at depth `window`.
    #[inline]
    fn member(self, suf: SuffixRef, window: usize) -> Member {
        let sid = suf.sid() as usize;
        let start = self.offsets[sid] + suf.off();
        let mut m = Member {
            word: 0,
            suf,
            start,
            len: self.offsets[sid + 1] - start,
        };
        m.load(self.bases, window);
        m
    }
}

/// One suffix of a group being subdivided, with its next bases cached.
#[derive(Debug, Clone, Copy)]
struct Member {
    /// The suffix's 32 bases from its group's window start as 2-bit
    /// codes, the first most significant. Bases past the suffix's end are
    /// arbitrary: `len` bounds every read.
    word: u64,
    suf: SuffixRef,
    /// Where the suffix starts in the store's text.
    start: u32,
    /// The suffix's length.
    len: u32,
}

impl Member {
    /// Refill the word with the suffix's bases from depth `window`.
    #[inline]
    fn load(&mut self, text: &[u8], window: usize) {
        self.word = pack_word(text, self.start as usize + window);
    }

    /// The branch class at depth `d` of a word loaded at depth `window`:
    /// 0 where the suffix ends (the implicit terminator, which sorts
    /// first), else 1–4 for A/C/G/T.
    #[inline]
    fn class_at(&self, d: usize, window: usize) -> u8 {
        debug_assert!(
            d - window < WORD_BASES,
            "depth {d} past the word at {window}"
        );
        if self.len as usize == d {
            0
        } else {
            (self.word << (2 * (d - window)) >> 62) as u8 + 1
        }
    }
}

/// The 2-bit codes of `text[at..at + 32]`, the first base most
/// significant; bytes past the end of `text` read as `A`.
#[inline]
fn pack_word(text: &[u8], at: usize) -> u64 {
    match text.get(at..at + WORD_BASES) {
        Some(bases) => bases
            .chunks_exact(8)
            .fold(0, |w, c| (w << 16) | pack8(c.try_into().expect("8 bytes"))),
        None => {
            let mut padded = [b'A'; WORD_BASES];
            let tail = text.get(at..).unwrap_or_default();
            padded[..tail.len()].copy_from_slice(tail);
            pack_word(&padded, 0)
        }
    }
}

/// The 2-bit codes (`A/C/G/T` → 0–3) of eight stored bases in the low 16
/// bits, the first base most significant. Bits 1–2 of an uppercase base
/// read A 0, C 1, G 3, T 2, and its bit 2 turns G and T into 2 and 3.
/// The store holds only uppercase `ACGT`.
#[inline]
fn pack8(bases: [u8; 8]) -> u64 {
    let x = u64::from_be_bytes(bases);
    let codes = ((x >> 1) & 0x0303_0303_0303_0303) ^ ((x >> 2) & 0x0101_0101_0101_0101);
    // Byte i (the first base is byte 7) moves to bits 2i..2i+2: pairs of
    // bytes, then pairs of pairs, then the two halves.
    let t = (codes | codes >> 6) & 0x000F_000F_000F_000F;
    let t = (t | t >> 12) & 0x0000_00FF_0000_00FF;
    (t | t >> 24) & 0xFFFF
}

/// Refill every member's word at depth `d`; returns `d`, the new window.
fn refill(text: &[u8], group: &mut [Member], d: usize) -> usize {
    for m in group.iter_mut() {
        m.load(text, d);
    }
    d
}

/// What every level of one group's recursion shares: the text the
/// members' words are refilled from, the floor ψ and the new-string floor.
#[derive(Clone, Copy)]
struct Scope<'t> {
    text: &'t [u8],
    psi: usize,
    fresh: u32,
}

/// Recursively build the subtree of a group of suffixes sharing a prefix
/// of length `d`, whose words were loaded at depth `window`, appending
/// nodes in DFS order.
///
/// Nodes shallower than `scope.psi` are not emitted: a branch shallower
/// than ψ hands each child group of two or more suffixes on as a DFS range
/// of its own and drops its single-suffix children, which are lone leaves
/// that can never emit a pair. Every suffix of the group must then be at
/// least ψ long. ψ = 0 builds the full subtree. Such a branch also drops
/// the child groups that fail [`holds_fresh`], so every range it hands on
/// holds a suffix of a string with id `≥ scope.fresh`; the caller checks
/// the group itself.
fn subdivide(
    scope: Scope,
    tree: &mut Subtree,
    group: &mut [Member],
    mut d: usize,
    mut window: usize,
    sort: &mut SortScratch,
) {
    let Scope { text, psi, fresh } = scope;
    debug_assert!(!group.is_empty());

    // Singleton group: a leaf at the suffix's full length.
    if group.len() == 1 {
        push_leaf(tree, group.iter().map(|m| m.suf));
        return;
    }

    // Multi-character skip: advance past the group's longest common
    // extension, one window at a time. It stops at the first difference
    // or the shortest suffix's end, and moves on to the next window only
    // when it reaches the end of this one first.
    loop {
        if d - window == WORD_BASES {
            window = refill(text, group, d);
        }
        let shift = 2 * (d - window);
        let first = group[0].word << shift;
        let (mut k, mut shortest) = (WORD_BASES - (d - window), usize::MAX);
        for m in group.iter() {
            shortest = shortest.min(m.len as usize - d);
            k = k.min(((m.word << shift) ^ first).leading_zeros() as usize / 2);
        }
        d += k.min(shortest);
        if shortest <= k || d - window < WORD_BASES {
            break;
        }
    }
    if d - window == WORD_BASES {
        window = refill(text, group, d);
    }

    // A group of two is one leaf when both suffixes end here (the skip
    // was maximal), or branches into two leaves: no counting sort needed.
    if let [a, b] = group {
        let (ca, cb) = (a.class_at(d, window), b.class_at(d, window));
        if ca == cb {
            push_leaf(tree, [a.suf, b.suf]);
            return;
        }
        if d < psi {
            return; // two lone leaves under a parent shallower than ψ
        }
        let idx = tree.nodes.len() as u32;
        tree.nodes.push(Node::internal(idx + 2, d as u32));
        let (first, second) = if ca < cb { (a, b) } else { (b, a) };
        push_leaf(tree, [first.suf]);
        push_leaf(tree, [second.suf]);
        return;
    }

    // Classify the group by the character at depth d: end-of-string (the
    // implicit terminator) is class 0 and sorts first, then A, C, G, T.
    // The classes are kept for the scatter below. The skip was maximal,
    // so either every suffix ends here or at least two classes are
    // non-empty.
    let mut counts = [0usize; 5];
    sort.class.clear();
    for m in group.iter() {
        let class = m.class_at(d, window);
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
        push_leaf(tree, group.iter().map(|m| m.suf));
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
    for (&m, &class) in sort.buf.iter().zip(&sort.class) {
        group[pos[class as usize]] = m;
        pos[class as usize] += 1;
    }
    debug_assert_eq!(pos[4], group.len());

    let mut start = 0usize;
    for (class, &len) in counts.iter().enumerate() {
        let sub = &mut group[start..start + len];
        start += len;
        if len == 0 || (!emit && (len == 1 || !holds_fresh(fresh, sub.iter().map(|m| m.suf)))) {
            // No child, a lone leaf under a parent shallower than ψ, or a
            // range with no new suffix.
            continue;
        }
        if class == 0 {
            push_leaf(tree, sub.iter().map(|m| m.suf)); // the end-of-string child
        } else {
            subdivide(scope, tree, sub, d + 1, window, sort);
        }
    }
    debug_assert_eq!(start, group.len());

    if emit {
        let last = (tree.nodes.len() - 1) as u32;
        tree.nodes[node_idx].set_rightmost(last);
    }
}

/// Reference subdivision using the pre-rewrite per-character recursion
/// and comparison sort over the bytes of the text. Kept (not
/// `cfg(test)`) so the equivalence property test and the
/// `gst_subdivision` criterion group can hold the word-based builder to
/// byte-identical output and measure the gap.
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
        push_leaf(tree, group.iter().copied());
        return;
    }
    // The character at depth d: end-of-string is class 0, then A, C, G, T.
    let class = |suf: SuffixRef, d: usize| {
        suf.bytes(store).get(d).map_or(0, |&c| {
            b"ACGT".iter().position(|&b| b == c).expect("ACGT") + 1
        })
    };
    loop {
        let mut counts = [0usize; 5];
        for &suf in group.iter() {
            counts[class(suf, d)] += 1;
        }
        let ends = counts[0];
        if counts.iter().filter(|&&c| c > 0).count() == 1 {
            if ends > 0 {
                push_leaf(tree, group.iter().copied());
                return;
            }
            d += 1;
            continue;
        }
        let node_idx = tree.nodes.len();
        tree.nodes.push(Node::internal(0, d as u32));
        group.sort_by_key(|&suf| class(suf, d));
        let mut start = 0usize;
        if ends > 0 {
            push_leaf(tree, group[..ends].iter().copied());
            start = ends;
        }
        for &len in &counts[1..] {
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
fn push_leaf(tree: &mut Subtree, group: impl IntoIterator<Item = SuffixRef>) {
    let start = tree.suffixes.len() as u32;
    tree.suffixes.extend(group);
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
    use proptest::test_runner::TestCaseError;
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

    #[test]
    fn words_are_refilled_across_window_boundaries() {
        // Shared runs of exactly 31, 32, 33 and 64 bases after the
        // w-prefix, then a difference, and suffixes ending inside a word.
        let template: Vec<u8> = (0..140).map(|i| b"ACGT"[(i * 7 + i / 5) % 4]).collect();
        for run in [31, 32, 33, 63, 64, 65, 96] {
            let mut twin = template[..run + 2].to_vec();
            twin[run + 1] = if twin[run + 1] == b'A' { b'C' } else { b'A' };
            let s = SequenceStore::from_ests(&[template.clone(), twin, template[..run].to_vec()])
                .unwrap();
            let mut scratch = BuildScratch::new();
            for (b, sufs) in per_bucket(&s, 1) {
                let reference = build_subtree_comparison_sort(&s, b, sufs.clone(), 1);
                let fast = build_subtree_with(&s, b, &sufs, 1, &mut scratch);
                fast.validate(&s).unwrap();
                assert_eq!(fast, reference, "run {run} bucket {b}");
            }
        }
    }

    fn check_against_comparison_sort(ests: &[Vec<u8>], w: usize) -> Result<(), TestCaseError> {
        let s = SequenceStore::from_ests(ests).unwrap();
        let mut scratch = BuildScratch::new();
        for (b, sufs) in per_bucket(&s, w) {
            let reference = build_subtree_comparison_sort(&s, b, sufs.clone(), w);
            let fast = build_subtree_with(&s, b, &sufs, w, &mut scratch);
            prop_assert_eq!(&fast, &reference, "bucket {} diverged", b);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// [`counting_sort_matches_comparison_sort`] on reads cut from a
        /// few templates, whose common extensions cross word boundaries.
        #[test]
        fn counting_sort_matches_comparison_sort_across_words(
            ests in crate::strategies::template_ests(),
            w in 1usize..9,
        ) {
            check_against_comparison_sort(&ests, w)?;
        }
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

        /// The word-based builder is byte-identical to the
        /// comparison-sort reference: same DFS node arrays, same depths,
        /// same suffix arena layout.
        #[test]
        fn counting_sort_matches_comparison_sort(ests in dna_ests(), w in 1usize..4) {
            check_against_comparison_sort(&ests, w)?;
        }

        /// A packed word holds the 2-bit codes of the 32 bytes from any
        /// offset, the first most significant, with `A` past the end.
        #[test]
        fn packed_words_hold_each_base_in_order(
            text in proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..80),
            at in 0usize..90,
        ) {
            let slow = (at..at + WORD_BASES).fold(0u64, |w, i| {
                let code = text.get(i).map_or(0, |&c| b"ACGT".iter().position(|&b| b == c).unwrap());
                (w << 2) | code as u64
            });
            prop_assert_eq!(pack_word(&text, at), slow);
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
