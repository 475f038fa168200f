//! The on-demand pair generator (Algorithm 1 of the paper).
//!
//! `GeneratePairs` processes every forest node of string-depth ≥ ψ in
//! decreasing string-depth order. Leaves seed their lsets from the leaf
//! labels; internal nodes eliminate duplicate strings across their
//! children's lsets (global marker array), emit the Cartesian products of
//! lsets of *different children* and *different characters* (or both λ),
//! and then splice the children's lsets into their own. The generator is
//! resumable: [`PairGenerator::next_batch`] advances just far enough to
//! satisfy the request and remembers everything else for the next call.
//!
//! The bookkeeping follows the nodes that can emit pairs:
//!
//! * **Leaves are read in place.** A leaf holding one suffix emits
//!   nothing, so it is never scheduled and holds no lsets; its parent
//!   reads it straight from the DFS array. A multi-suffix leaf is
//!   scheduled for its own products only, and its parent reads it in
//!   place too.
//! * **Slots for internal nodes only.** An internal node's lsets wait for
//!   its parent in a slab entry (reused through a free list) that the
//!   node's slot points to. Only in-scope internal nodes ever hold lsets,
//!   so only they get a `u32` slot: a node's slot is its rank among them
//!   in forest order, read from a bitmap with a count per 64-bit word.
//!   Children are gathered into a fixed array of five (at most one child
//!   per `$ACGT`), and class products with an empty side are skipped.
//! * **Signature-gated dedup.** The cross-child duplicate-elimination
//!   walk starts only at the first child whose string signature meets
//!   an earlier sibling's; disjoint signatures prove there is nothing to
//!   strip.
//! * **Bands in memory order.** The depth order visits the forest out of
//!   memory order, so it is processed in bands of consecutive schedule
//!   entries. A band is sorted into tree order and processed whole, and
//!   its pairs are then stable-sorted by decreasing MCS length, which
//!   restores the depth order's stream exactly. Each band is sized from
//!   the last one's pairs per node to make about 2^16 pairs, within
//!   2^18 nodes, so the buffer holds about one band's pairs plus what a
//!   request left over, not a share of the run's pair list.

use crate::lset::{class_of, Arena, LsetIter, Lsets, NIL, NUM_CLASSES};
use crate::pair::CandidatePair;
use pace_gst::{LocalForest, NodeIdx, Subtree};
use pace_seq::{SequenceStore, StrId, Strand};
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Most scheduled nodes in one band of the decreasing-MCS schedule. A
/// band is the unit of work: a [`PairGenerator::next_batch_into`] call
/// that finds its buffer short runs to the end of a band, so a band
/// bounds both the pairs buffered at once and how far a call runs past
/// its request.
const BAND_NODES: usize = 1 << 18;

/// The pairs a band aims at (about 1.3 MB buffered): the next band gets
/// as many nodes as make this many pairs at the last band's pairs per
/// node, at most four times the last band's nodes and [`BAND_NODES`].
const BAND_PAIRS: usize = 1 << 16;

/// Nodes in the first band, before any density is known: the deepest
/// nodes, where a library's longest overlaps pair up.
const FIRST_BAND_NODES: usize = 1 << 12;

/// In which order promising pairs are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairOrder {
    /// Decreasing maximal-common-substring length — the paper's order,
    /// obtained by sorting nodes by decreasing string-depth. Pairs most
    /// likely to merge clusters come out first, which is what makes the
    /// master's "skip pairs already clustered together" rule so effective.
    #[default]
    DecreasingMcs,
    /// Tree order (no sort) — the "traditional way of generating pairs in
    /// an arbitrary order" used as the ablation baseline.
    Arbitrary,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairGenConfig {
    /// Minimum maximal-common-substring length ψ for a pair to be
    /// promising. Must be at least the bucket window `w` of the forest.
    pub psi: u32,
    /// Pair reporting order.
    pub order: PairOrder,
}

impl PairGenConfig {
    /// Config with the given ψ and the paper's decreasing-MCS order.
    pub fn new(psi: u32) -> Self {
        PairGenConfig {
            psi,
            order: PairOrder::DecreasingMcs,
        }
    }
}

/// Counters describing a generator's work so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenStats {
    /// Forest nodes of depth ≥ ψ processed. Single-suffix leaves, which
    /// emit nothing, are counted up front. An in-scope forest leaves out
    /// the single-suffix leaves whose parent is shallower than ψ, so over
    /// the same input it counts fewer nodes than the full forest — by
    /// exactly those leaves; every other counter is the same.
    pub nodes_processed: u64,
    /// Raw pairs produced by the Cartesian products, before any filtering.
    pub raw_pairs: u64,
    /// Pairs discarded because both strings belong to the same EST.
    pub discarded_self: u64,
    /// Mirror-image pairs discarded (the smaller EST's string was in
    /// complemented form; the complementary pair is generated elsewhere).
    pub discarded_mirror: u64,
    /// Promising pairs actually emitted.
    pub emitted: u64,
}

/// Resumable promising-pair generator over one rank's forest.
pub struct PairGenerator<'s> {
    store: &'s SequenceStore,
    forest: &'s LocalForest,
    psi: u32,
    /// `(subtree index, node index)` of the internal nodes and
    /// multi-suffix leaves of depth ≥ ψ, in the order's schedule; each
    /// band is sorted into tree order when it is processed.
    schedule: Vec<(u32, NodeIdx)>,
    /// Schedule entries in the next band, processed together.
    band: usize,
    /// Most schedule entries in a band: [`BAND_NODES`] in the
    /// decreasing-MCS order, 1 in tree order, which is its own stream.
    max_band: usize,
    /// Next schedule position to process (always a band boundary).
    pos: usize,
    /// Most pairs ever buffered at once.
    peak_buffered: usize,
    /// Node `v` of subtree `t` is at forest position `base[t] + v`.
    base: Vec<u32>,
    /// Which forest positions hold an in-scope internal node.
    internal: RankBits,
    /// Per in-scope internal node, by rank: the `held` entry with its
    /// lsets, `NIL`, or [`UNREAD`]. A node fills its slot when processed
    /// and its parent empties it, so `held` tracks only the active
    /// frontier.
    slot: Vec<u32>,
    held: Vec<Lsets>,
    /// Vacated `held` entries, reused before the slab grows.
    free: Vec<u32>,
    arena: Arena,
    /// `marker[sid] == mark` ⇔ string seen at the node with id `mark`.
    marker: Vec<u64>,
    mark_ctr: u64,
    out: Emissions,
}

impl<'s> PairGenerator<'s> {
    /// Create a generator for `forest`. Requires `psi ≥ w` (a maximal
    /// common substring shorter than the bucket window can have no node)
    /// and `psi ≥ forest.psi` (a forest gated at ψ lacks the shallower
    /// nodes, so a smaller ψ would silently drop pairs).
    pub fn new(store: &'s SequenceStore, forest: &'s LocalForest, config: PairGenConfig) -> Self {
        assert!(
            config.psi as usize >= forest.w,
            "psi ({}) must be at least the bucket window w ({})",
            config.psi,
            forest.w
        );
        assert!(
            config.psi >= forest.psi,
            "psi ({}) is below the psi ({}) the forest was built for",
            config.psi,
            forest.psi
        );
        let Plan {
            schedule,
            lone_leaves,
            base,
            internal,
            slot,
        } = plan(store, forest, config.psi, config.order);
        let max_band = match config.order {
            PairOrder::DecreasingMcs => BAND_NODES,
            PairOrder::Arbitrary => 1,
        };
        PairGenerator {
            store,
            forest,
            psi: config.psi,
            schedule,
            band: FIRST_BAND_NODES.min(max_band),
            max_band,
            pos: 0,
            peak_buffered: 0,
            base,
            internal,
            slot,
            held: Vec::new(),
            free: Vec::new(),
            arena: Arena::with_capacity(forest.num_suffixes()),
            marker: vec![0; store.num_strings()],
            mark_ctr: 0,
            out: Emissions {
                stats: GenStats {
                    nodes_processed: lone_leaves,
                    ..GenStats::default()
                },
                ..Emissions::default()
            },
        }
    }

    /// The ψ threshold this generator was built with.
    pub fn psi(&self) -> u32 {
        self.psi
    }

    /// Whether every node has been processed and every pair delivered.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.schedule.len() && self.out.buffer.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> GenStats {
        self.out.stats
    }

    /// How many pairs have been emitted per maximal-common-substring
    /// length so far — the distribution that informs the choice of ψ
    /// (pairs just above the threshold are the marginal candidates).
    pub fn emitted_by_mcs_len(&self) -> &BTreeMap<u32, u64> {
        &self.out.by_len
    }

    /// The most pairs buffered at once so far: one band's emissions
    /// plus what an earlier request left over.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Approximate heap footprint of the generator's own state: the lset
    /// arena, the marker array, the schedule, the slots (one per in-scope
    /// internal node) with their rank index, slab and free list, and the
    /// pair buffer (about one band's pairs). No part ever shrinks, so the
    /// value at exhaustion is the generator's peak.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.memory_bytes()
            + self.marker.capacity() * size_of::<u64>()
            + self.schedule.capacity() * size_of::<(u32, NodeIdx)>()
            + self.base.capacity() * size_of::<u32>()
            + self.internal.memory_bytes()
            + self.slot.capacity() * size_of::<u32>()
            + self.held.capacity() * size_of::<Lsets>()
            + self.free.capacity() * size_of::<u32>()
            + self.out.buffer.capacity() * size_of::<CandidatePair>()
    }

    /// Produce up to `max` promising pairs, advancing the traversal a
    /// band at a time, only as far as needed. Returns fewer than `max`
    /// only when the forest is exhausted; an empty vector means no pairs
    /// remain.
    pub fn next_batch(&mut self, max: usize) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        self.next_batch_into(max, &mut out);
        out
    }

    /// [`next_batch`](Self::next_batch) into a caller-owned buffer: `out`
    /// is cleared and refilled, so a driver looping over batches reuses
    /// one allocation for the whole run.
    pub fn next_batch_into(&mut self, max: usize, out: &mut Vec<CandidatePair>) {
        out.clear();
        while self.out.buffer.len() < max && self.pos < self.schedule.len() {
            self.process_band();
        }
        let take = max.min(self.out.buffer.len());
        out.extend(self.out.buffer.drain(..take));
    }

    /// Process the next band whole in tree order (ascending subtree,
    /// descending node index), then stable-sort its pairs by decreasing
    /// MCS length, and size the band after it. Tree order keeps children
    /// ahead of parents: a child is at least as deep as its parent, so it
    /// lies in its parent's band or an earlier one, and inside a band its
    /// larger DFS index puts it first. A node's pairs all have its depth,
    /// and same-depth nodes keep their schedule order inside a band, so
    /// the sort puts the band's pairs in the depth order's sequence.
    fn process_band(&mut self) {
        let first = self.out.buffer.len();
        let end = (self.pos + self.band).min(self.schedule.len());
        // In place, so a band costs no scratch memory.
        self.schedule[self.pos..end]
            .sort_unstable_by_key(|&(t, v)| (u64::from(t) << 32) | u64::from(!v));
        for i in self.pos..end {
            let (t, v) = self.schedule[i];
            self.process_node(t as usize, v);
        }
        let (nodes, made) = (end - self.pos, self.out.buffer.len() - first);
        self.out.buffer.make_contiguous()[first..].sort_by_key(|p| Reverse(p.mcs_len));
        self.band = (BAND_PAIRS * nodes / made.max(1)).clamp(1, self.max_band.min(4 * nodes));
        self.pos = end;
        self.peak_buffered = self.peak_buffered.max(self.out.buffer.len());
    }

    /// Drain every remaining pair (convenience for tests and the baseline).
    pub fn generate_all(&mut self) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        loop {
            let batch = self.next_batch(4096);
            if batch.is_empty() {
                break;
            }
            out.extend(batch);
        }
        out
    }

    fn process_node(&mut self, t: usize, v: NodeIdx) {
        self.out.stats.nodes_processed += 1;
        let tree = &self.forest.subtrees[t];
        if tree.is_leaf(v) {
            self.process_leaf(tree, v);
        } else {
            self.process_internal(t, v);
        }
    }

    /// The lsets of leaf `v`, read in place from the DFS array: one entry
    /// per string, classed by the left character of its suffix.
    fn read_leaf(&mut self, tree: &Subtree, v: NodeIdx) -> Lsets {
        self.mark_ctr += 1;
        let mark = self.mark_ctr;
        let mut lsets = Lsets::new();
        for suf in tree.leaf_suffixes(v) {
            if self.marker[suf.sid as usize] == mark {
                continue; // one lset occurrence per string (paper §3.2)
            }
            self.marker[suf.sid as usize] = mark;
            let class = class_of(self.store.left_char(StrId(suf.sid), suf.off as usize));
            let e = self.arena.alloc(suf.sid, suf.off);
            lsets.push(&mut self.arena, class, e);
        }
        lsets
    }

    /// `ProcessLeaf` for a multi-suffix leaf: emit the products of
    /// different-class lsets plus the unordered pairs within `l_λ`. The
    /// lsets live at the arena's tail only for the emission — the parent
    /// reads the leaf again in place — so the arena never outgrows the
    /// forest's suffix count.
    fn process_leaf(&mut self, tree: &Subtree, v: NodeIdx) {
        let top = self.arena.len();
        let lsets = self.read_leaf(tree, v);
        let depth = tree.depth(self.store, v);
        let (arena, out) = (&self.arena, &mut self.out);
        // P_v = ⋃ l_ci × l_cj for ci < cj, plus l_λ × l_λ (unordered).
        for ci in 0..NUM_CLASSES {
            for cj in (ci + 1)..NUM_CLASSES {
                out.product(lsets.iter(arena, ci), lsets.iter(arena, cj), depth);
            }
        }
        // λ × λ: both suffixes are whole strings; the shared prefix is
        // trivially left-maximal at the string boundary.
        let mut rest = lsets.iter(arena, 0);
        while let Some(a) = rest.next() {
            for b in rest.clone() {
                out.emit(a, b, depth);
            }
        }
        self.arena.truncate(top);
    }

    /// `ProcessInternalNode`: eliminate duplicate strings across the
    /// children's lsets, emit products of different children with
    /// different characters (or both λ), then union the lsets upward.
    fn process_internal(&mut self, t: usize, v: NodeIdx) {
        let tree = &self.forest.subtrees[t];
        let base = self.base[t] as usize;
        // At most one child per `$ACGT`.
        let mut kids = [Lsets::new(); 5];
        let mut n = 0;
        for u in tree.children(v) {
            kids[n] = if tree.is_leaf(u) {
                self.read_leaf(tree, u)
            } else {
                self.take(self.internal.rank(base + u as usize))
            };
            n += 1;
        }
        let kids = &mut kids[..n];
        self.mark_ctr += 1;
        let mark = self.mark_ctr;

        // Step 1: strip strings already seen in an earlier child (shared
        // mark ⇒ cross-child dedup). A child whose signature misses all
        // of its elders' has nothing to strip; the walk starts at the
        // first child that meets them, marking the skipped elders first.
        let mut seen = 0u64;
        let mut walked = 0;
        for k in 0..n {
            if kids[k].sig() & seen != 0 {
                for ls in &mut kids[walked..=k] {
                    ls.dedup_against(&mut self.arena, &mut self.marker, mark);
                }
                walked = k + 1;
            }
            seen |= kids[k].sig();
        }

        // Step 2: P_v = ⋃ l_ci(u_k) × l_cj(u_l), k < l, ci ≠ cj or both λ.
        let depth = tree.depth(self.store, v);
        let (arena, out) = (&self.arena, &mut self.out);
        for k in 0..n {
            for l in (k + 1)..n {
                for ci in 0..NUM_CLASSES {
                    if kids[k].head(ci) == NIL {
                        continue;
                    }
                    for cj in 0..NUM_CLASSES {
                        if (ci == cj && ci != 0) || kids[l].head(cj) == NIL {
                            continue;
                        }
                        out.product(kids[k].iter(arena, ci), kids[l].iter(arena, cj), depth);
                    }
                }
            }
        }

        // Step 3: l_c(v) = ⋃_k l_c(u_k) — O(|Σ|²) splices — for the
        // parent to take, if it is in scope.
        let s = self.internal.rank(base + v as usize);
        if self.slot[s] != UNREAD {
            let mut merged = kids[0];
            for &ls in &kids[1..] {
                merged.append(&mut self.arena, ls);
            }
            self.hold(s, merged);
        }
    }

    /// Park `lsets` in slot `s` until the parent takes them.
    fn hold(&mut self, s: usize, lsets: Lsets) {
        self.slot[s] = match self.free.pop() {
            Some(h) => {
                self.held[h as usize] = lsets;
                h
            }
            None => {
                self.held.push(lsets);
                (self.held.len() - 1) as u32
            }
        };
    }

    /// Take the lsets parked in slot `s`, freeing its slab entry.
    fn take(&mut self, s: usize) -> Lsets {
        let h = std::mem::replace(&mut self.slot[s], NIL);
        assert!(h != NIL, "child must be processed before its parent");
        self.free.push(h);
        self.held[h as usize]
    }
}

/// What the generator works out from its forest before the first node.
struct Plan {
    /// `(subtree index, node index)` in processing order.
    schedule: Vec<(u32, NodeIdx)>,
    /// In-scope single-suffix leaves, left out of the schedule.
    lone_leaves: u64,
    /// Each subtree's first forest position.
    base: Vec<u32>,
    /// The forest positions of the in-scope internal nodes.
    internal: RankBits,
    /// One slot per in-scope internal node, by rank: `NIL`, or
    /// [`UNREAD`] when its parent is out of scope.
    slot: Vec<u32>,
}

/// Slot value of an internal node whose parent is out of scope: nobody
/// will read its lsets, so it holds none.
const UNREAD: u32 = NIL - 1;

/// A bitmap over forest positions with the count of set bits before each
/// 64-bit word, so a set position's rank among them costs two reads and
/// a popcount: 12 bytes per 64 positions.
struct RankBits {
    words: Vec<u64>,
    before: Vec<u32>,
}

impl RankBits {
    /// Index a finished bitmap.
    fn new(words: Vec<u64>) -> Self {
        let mut ones = 0u32;
        let before = words
            .iter()
            .map(|w| {
                let b = ones;
                ones += w.count_ones();
                b
            })
            .collect();
        RankBits { words, before }
    }

    /// The number of set positions before `g`.
    #[inline]
    fn rank(&self, g: usize) -> usize {
        let (w, b) = (g / 64, g % 64);
        self.before[w] as usize + (self.words[w] & ((1u64 << b) - 1)).count_ones() as usize
    }

    fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.before.capacity() * std::mem::size_of::<u32>()
    }
}

/// Plan a generator over `forest`: build the node-processing schedule
/// without a comparison sort, and give each in-scope internal node a
/// slot, marking the [`UNREAD`] ones.
///
/// String-depths are bounded by the longest stored string, so the
/// decreasing-MCS order is a bucket sort over the depth range —
/// O(nodes + depth range) instead of O(nodes · log nodes). The fill
/// order reproduces the old comparator's `(Reverse(depth), t, Reverse(v))`
/// key byte-for-byte: buckets are scanned deepest first, and within a
/// bucket entries arrive in ascending subtree order with descending node
/// index (the tie-break that puts equal-depth terminator leaves before
/// their parents, keeping children ahead of parents everywhere).
fn plan(store: &SequenceStore, forest: &LocalForest, psi: u32, order: PairOrder) -> Plan {
    // A forest gated at ψ or above holds no node shallower than ψ.
    let gated = forest.psi >= psi;
    let mut base = Vec::with_capacity(forest.subtrees.len());
    let mut nodes = 0usize;
    for tree in &forest.subtrees {
        base.push(u32::try_from(nodes).expect("a forest holds fewer than 2^32 nodes"));
        nodes += tree.len();
    }
    let mut internal = vec![0u64; nodes.div_ceil(64)];
    let mut scheduled = vec![0u64; nodes.div_ceil(64)];
    let mut slot = Vec::new();
    // Pass 1: per-depth histogram of the scheduled nodes, which it marks
    // for pass 2, and the slots. In-scope nodes form whole DFS ranges (a
    // child is at least as deep as its parent), so an in-scope internal
    // node past the end of the last range is the top of a new one.
    let mut by_depth: Vec<usize> = Vec::new();
    let mut lone_leaves = 0u64;
    for (tree, &b) in forest.subtrees.iter().zip(&base) {
        let mut range_end = None;
        for v in 0..tree.len() as NodeIdx {
            // A single-suffix leaf emits nothing, so its parent reads it in
            // place instead of it being scheduled. Its suffix count comes
            // from its neighbour's arena boundary, and its depth is read
            // only when the forest may hold nodes shallower than ψ.
            if tree.is_leaf(v) && tree.leaf_range(v).len() == 1 {
                lone_leaves += u64::from(gated || tree.depth(store, v) >= psi);
                continue;
            }
            let d = tree.depth(store, v) as usize;
            if d < psi as usize {
                continue;
            }
            let g = b as usize + v as usize;
            scheduled[g / 64] |= 1 << (g % 64);
            if !tree.is_leaf(v) {
                internal[g / 64] |= 1 << (g % 64);
                let top = range_end.is_none_or(|end| v > end);
                if top {
                    range_end = Some(tree.rightmost(v));
                }
                slot.push(if top { UNREAD } else { NIL });
            }
            if d >= by_depth.len() {
                by_depth.resize(d + 1, 0);
            }
            by_depth[d] += 1;
        }
    }
    slot.shrink_to_fit();
    let total: usize = by_depth.iter().sum();
    let mut schedule = vec![(0u32, 0 as NodeIdx); total];
    // Pass 2: fill the marked nodes in reverse DFS order per subtree,
    // which keeps children ahead of parents, reading only a scheduled
    // node's depth. `next[d]` is where the next depth-`d` node goes:
    // deeper buckets first for the paper's order, one shared cursor for
    // tree order.
    let mut next = vec![0usize; by_depth.len()];
    if order == PairOrder::DecreasingMcs {
        let mut at = 0;
        for d in (0..by_depth.len()).rev() {
            next[d] = at;
            at += by_depth[d];
        }
    }
    let mut cursor = 0usize;
    for (t, (tree, &b)) in forest.subtrees.iter().zip(&base).enumerate() {
        for v in (0..tree.len() as NodeIdx).rev() {
            let g = b as usize + v as usize;
            if scheduled[g / 64] >> (g % 64) & 1 == 0 {
                continue;
            }
            let at = match order {
                PairOrder::DecreasingMcs => &mut next[tree.depth(store, v) as usize],
                PairOrder::Arbitrary => &mut cursor,
            };
            schedule[*at] = (t as u32, v);
            *at += 1;
        }
    }
    Plan {
        schedule,
        lone_leaves,
        base,
        internal: RankBits::new(internal),
        slot,
    }
}

/// Where surviving pairs go: the batch buffer, the counters and the
/// MCS-length histogram.
#[derive(Default)]
struct Emissions {
    buffer: VecDeque<CandidatePair>,
    stats: GenStats,
    /// Emission counts keyed by MCS length (ψ-tuning diagnostics).
    by_len: BTreeMap<u32, u64>,
}

impl Emissions {
    /// Emit every pair of `a × b`, `a` in the outer loop.
    #[inline]
    fn product(&mut self, a: LsetIter<'_>, b: LsetIter<'_>, depth: u32) {
        for x in a {
            for y in b.clone() {
                self.emit(x, y, depth);
            }
        }
    }

    /// Filter and normalize one raw pair of `(sid, off)` occurrences,
    /// buffering it if it survives (see [`CandidatePair`] for the
    /// normalization rules).
    #[inline]
    fn emit(&mut self, (sid1, off1): (u32, u32), (sid2, off2): (u32, u32), depth: u32) {
        self.stats.raw_pairs += 1;
        let (x, y) = (StrId(sid1), StrId(sid2));
        if x.est() == y.est() {
            self.stats.discarded_self += 1;
            return;
        }
        let ((s1, o1), (s2, o2)) = if x.est() < y.est() {
            ((x, off1), (y, off2))
        } else {
            ((y, off2), (x, off1))
        };
        if s1.strand() == Strand::Reverse {
            self.stats.discarded_mirror += 1;
            return;
        }
        self.stats.emitted += 1;
        *self.by_len.entry(depth).or_insert(0) += 1;
        self.buffer.push_back(CandidatePair {
            s1,
            s2,
            off1: o1,
            off2: o2,
            mcs_len: depth,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_gst::build_sequential;
    use pace_seq::SequenceStore;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn store(ests: &[&[u8]]) -> SequenceStore {
        SequenceStore::from_ests(ests).unwrap()
    }

    fn generate(store: &SequenceStore, w: usize, psi: u32) -> (Vec<CandidatePair>, GenStats) {
        let forest = build_sequential(store, w);
        let mut g = PairGenerator::new(store, &forest, PairGenConfig::new(psi));
        let pairs = g.generate_all();
        (pairs, g.stats())
    }

    /// All distinct maximal common substrings of `a` and `b` with length
    /// ≥ psi, by brute force over occurrence pairs.
    fn brute_mcs(a: &[u8], b: &[u8], psi: usize) -> BTreeSet<Vec<u8>> {
        let mut out = BTreeSet::new();
        for i in 0..a.len() {
            for j in 0..b.len() {
                if a[i] != b[j] {
                    continue;
                }
                // Only start at left-maximal occurrence pairs.
                if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
                    continue;
                }
                let mut k = 0;
                while i + k < a.len() && j + k < b.len() && a[i + k] == b[j + k] {
                    k += 1;
                }
                if k >= psi {
                    out.insert(a[i..i + k].to_vec());
                }
            }
        }
        out
    }

    /// Check Lemma-1 conditions at the witness offsets of one pair.
    fn check_witness(store: &SequenceStore, p: &CandidatePair) {
        let a = store.seq(p.s1);
        let b = store.seq(p.s2);
        let (i, j, k) = (p.off1 as usize, p.off2 as usize, p.mcs_len as usize);
        assert!(i + k <= a.len() && j + k <= b.len(), "witness out of range");
        assert_eq!(&a[i..i + k], &b[j..j + k], "witness is not a match: {p}");
        // Left-maximal: boundary on either side, or differing characters.
        assert!(
            i == 0 || j == 0 || a[i - 1] != b[j - 1],
            "witness left-extensible: {p}"
        );
        // Right-maximal likewise.
        assert!(
            i + k == a.len() || j + k == b.len() || a[i + k] != b[j + k],
            "witness right-extensible: {p}"
        );
    }

    #[test]
    fn two_overlapping_ests_are_paired() {
        // e0 and e1 share the 12-base block "ACGGTTCAGGAT".
        let s = store(&[b"TTTTACGGTTCAGGAT", b"ACGGTTCAGGATCCCC"]);
        let (pairs, stats) = generate(&s, 2, 8);
        assert!(stats.emitted > 0);
        let found = pairs
            .iter()
            .any(|p| p.est_indices() == (0, 1) && p.mcs_len >= 12);
        assert!(found, "overlap pair not generated: {pairs:?}");
        for p in &pairs {
            check_witness(&s, p);
            assert!(p.mcs_len >= 8);
        }
    }

    #[test]
    fn reverse_strand_overlap_is_found_once_per_mcs() {
        // e1 starts with the reverse complement of e0's block: the overlap
        // exists only between e0-forward and e1-reverse.
        let block = b"ACGGTTCAGGATTCAG";
        let mut e1 = pace_seq::reverse_complement(block);
        e1.extend_from_slice(b"GGGG");
        let s = SequenceStore::from_ests(&[block.to_vec(), e1]).unwrap();
        let (pairs, _) = generate(&s, 2, 10);
        let hits: Vec<_> = pairs.iter().filter(|p| p.est_indices() == (0, 1)).collect();
        assert!(!hits.is_empty(), "reverse-strand overlap missed");
        for p in &hits {
            assert_eq!(p.s2.strand(), Strand::Reverse, "{p}");
            check_witness(&s, p);
        }
    }

    #[test]
    fn unrelated_ests_produce_no_pairs() {
        let s = store(&[b"AAAAAAAAAACCCCAAA", b"GTGTGTGTGTGTGTGT"]);
        let (pairs, _) = generate(&s, 2, 8);
        assert!(pairs.is_empty(), "unexpected pairs: {pairs:?}");
    }

    #[test]
    fn psi_threshold_filters_short_matches() {
        // Shared block of length exactly 9.
        let s = store(&[b"TTTTGACGTACGG", b"GACGTACGGCCCC"]);
        let (pairs, _) = generate(&s, 2, 10);
        assert!(
            pairs
                .iter()
                .all(|p| p.est_indices() != (0, 1) || p.mcs_len >= 10),
            "mcs below psi emitted"
        );
        let (pairs, _) = generate(&s, 2, 9);
        assert!(pairs.iter().any(|p| p.est_indices() == (0, 1)));
    }

    #[test]
    fn decreasing_order_is_respected() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
            b"GGCCAATTCCGGATCA",
        ]);
        let forest = build_sequential(&s, 2);
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        let mut last = u32::MAX;
        loop {
            let batch = g.next_batch(1);
            if batch.is_empty() {
                break;
            }
            assert!(
                batch[0].mcs_len <= last,
                "order violated: {} after {}",
                batch[0].mcs_len,
                last
            );
            last = batch[0].mcs_len;
        }
    }

    #[test]
    fn batching_matches_one_shot() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let one_shot = PairGenerator::new(&s, &forest, PairGenConfig::new(6)).generate_all();
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        let mut batched = Vec::new();
        while !g.is_exhausted() {
            batched.extend(g.next_batch(3));
        }
        assert_eq!(one_shot, batched);
        assert_eq!(g.stats().emitted as usize, batched.len());
    }

    #[test]
    fn mcs_histogram_accounts_for_every_emission() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        let pairs = g.generate_all();
        let hist = g.emitted_by_mcs_len();
        let total: u64 = hist.values().sum();
        assert_eq!(total, pairs.len() as u64);
        // Recompute the histogram from the pairs themselves.
        let mut expect = std::collections::BTreeMap::new();
        for p in &pairs {
            *expect.entry(p.mcs_len).or_insert(0u64) += 1;
        }
        assert_eq!(hist, &expect);
        assert!(hist.keys().all(|&len| len >= 6));
    }

    #[test]
    fn next_batch_respects_max() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        loop {
            let batch = g.next_batch(2);
            assert!(batch.len() <= 2);
            if batch.is_empty() {
                break;
            }
        }
        assert!(g.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "psi")]
    fn psi_below_window_rejected() {
        let s = store(&[b"ACGTACGTACGT"]);
        let forest = build_sequential(&s, 4);
        let _ = PairGenerator::new(&s, &forest, PairGenConfig::new(3));
    }

    #[test]
    #[should_panic(expected = "psi (6) is below the psi (8) the forest was built for")]
    fn psi_below_forest_scope_rejected() {
        let s = store(&[b"ACGTACGTACGT", b"TTACGTACGTAA"]);
        let partition = pace_gst::assign_buckets(&pace_gst::count_buckets(&s, 4), 1);
        let forest = pace_gst::build_in_scope_forest(&s, &partition, 0, 8);
        let _ = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
    }

    #[test]
    fn arbitrary_order_emits_same_pair_set() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let sorted = PairGenerator::new(&s, &forest, PairGenConfig::new(6)).generate_all();
        let mut arb_cfg = PairGenConfig::new(6);
        arb_cfg.order = PairOrder::Arbitrary;
        let arbitrary = PairGenerator::new(&s, &forest, arb_cfg).generate_all();
        let canon = |v: &[CandidatePair]| {
            let mut v: Vec<_> = v.to_vec();
            v.sort_by_key(|p| (p.s1, p.s2, p.mcs_len, p.off1, p.off2));
            v
        };
        assert_eq!(canon(&sorted), canon(&arbitrary));
    }

    #[test]
    fn exhausted_run_counts_every_in_scope_node() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let in_scope = forest
            .subtrees
            .iter()
            .flat_map(|t| t.node_depths(&s))
            .filter(|&(_, d)| d >= 6)
            .count() as u64;
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        g.generate_all();
        assert_eq!(g.stats().nodes_processed, in_scope);
        // Leaves are read in place once each, so the arena never outgrows
        // its preallocation.
        assert!(g.arena.len() <= forest.num_suffixes());
        assert!(g.memory_bytes() >= g.slot.len() * 4 + g.held.len() * std::mem::size_of::<Lsets>());
    }

    #[test]
    fn shared_multi_suffix_leaf_emits_its_products() {
        // Two ESTs ending in the same 10-base suffix share a leaf whose
        // products are the only pairs at that depth.
        let s = store(&[b"CCCCACGGTTCAGG", b"TTTTTACGGTTCAGG"]);
        let (pairs, stats) = generate(&s, 2, 10);
        assert!(pairs
            .iter()
            .any(|p| p.est_indices() == (0, 1) && p.mcs_len == 10));
        assert_eq!(
            stats.raw_pairs,
            stats.discarded_self + stats.discarded_mirror + stats.emitted
        );
    }

    /// Pair-id multiset of the emissions, for quantitative checks.
    fn emission_counts(pairs: &[CandidatePair]) -> BTreeMap<(u32, u32), usize> {
        let mut m = BTreeMap::new();
        for p in pairs {
            *m.entry((p.s1.0, p.s2.0)).or_insert(0) += 1;
        }
        m
    }

    fn dna_ests() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
                3..28,
            ),
            2..6,
        )
    }

    /// The pre-rewrite schedule: comparator sort over the collected
    /// nodes, with the same filter for scheduled nodes (single-suffix
    /// leaves are read in place).
    fn comparator_schedule(
        store: &SequenceStore,
        forest: &pace_gst::LocalForest,
        psi: u32,
        order: PairOrder,
    ) -> Vec<(u32, pace_gst::NodeIdx)> {
        let mut schedule = Vec::new();
        for (t, tree) in forest.subtrees.iter().enumerate() {
            for (v, depth) in tree.node_depths(store) {
                if depth >= psi && tree.leaf_suffixes(v).len() != 1 {
                    schedule.push((t as u32, v));
                }
            }
        }
        match order {
            PairOrder::DecreasingMcs => schedule.sort_by_key(|&(t, v)| {
                let depth = forest.subtrees[t as usize].depth(store, v);
                (std::cmp::Reverse(depth), t, std::cmp::Reverse(v))
            }),
            PairOrder::Arbitrary => schedule.sort_by_key(|&(t, v)| (t, std::cmp::Reverse(v))),
        }
        schedule
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The depth-bucket schedule is byte-identical — same `(t, v)`
        /// sequence — to the old comparator for random forests, in both
        /// orders and across ψ values.
        #[test]
        fn depth_bucket_schedule_matches_comparator(
            ests in dna_ests(),
            w in 1usize..4,
            psi_extra in 0u32..6,
        ) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let forest = build_sequential(&s, w);
            let psi = w as u32 + psi_extra;
            for order in [PairOrder::DecreasingMcs, PairOrder::Arbitrary] {
                let fast = super::plan(&s, &forest, psi, order).schedule;
                let reference = comparator_schedule(&s, &forest, psi, order);
                prop_assert_eq!(&fast, &reference, "order {:?} psi {}", order, psi);
            }
        }

        /// Bands of at most 1, 2, 7 and [`BAND_NODES`] nodes, each sized
        /// from the last one's pairs, emit the same pair stream: with
        /// one node per band it is the depth order's, node by node.
        #[test]
        fn bands_of_any_size_emit_the_depth_order_stream(
            ests in dna_ests(),
            w in 1usize..4,
            psi_extra in 0u32..6,
        ) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let forest = build_sequential(&s, w);
            let psi = w as u32 + psi_extra;
            let stream = |max_band: usize| {
                let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(psi));
                (g.band, g.max_band) = (g.band.min(max_band), max_band);
                g.generate_all()
            };
            let reference = stream(1);
            for max_band in [2, 7, BAND_NODES] {
                prop_assert_eq!(&stream(max_band), &reference, "bands of {} psi {}", max_band, psi);
            }
        }

        /// `DecreasingMcs` still processes every scheduled child before
        /// its parent (the invariant `process_internal` relies on when it
        /// takes the children's held lsets), and leaves out exactly the
        /// in-scope single-suffix leaves, which it counts. Exactly the
        /// in-scope internal nodes get slots, and the slots mark those
        /// without an in-scope parent.
        #[test]
        fn decreasing_mcs_yields_children_before_parents(
            ests in dna_ests(),
            w in 1usize..3,
            psi_extra in 0u32..6,
        ) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let forest = build_sequential(&s, w);
            let psi = w as u32 + psi_extra;
            let plan = super::plan(&s, &forest, psi, PairOrder::DecreasingMcs);
            let mut position = std::collections::HashMap::new();
            for (i, &(t, v)) in plan.schedule.iter().enumerate() {
                position.insert((t, v), i);
            }
            let mut unscheduled = 0u64;
            for (t, tree) in forest.subtrees.iter().enumerate() {
                let mut in_scope_parent = vec![false; tree.len()];
                for v in 0..tree.len() as u32 {
                    let in_scope = tree.depth(&s, v) >= psi;
                    for c in tree.children(v) {
                        in_scope_parent[c as usize] = in_scope;
                    }
                    // Exactly the in-scope internal nodes have slots.
                    let g = plan.base[t] as usize + v as usize;
                    let has_slot = plan.internal.words[g / 64] >> (g % 64) & 1 == 1;
                    prop_assert_eq!(has_slot, in_scope && !tree.is_leaf(v), "node {} slot", v);
                    if has_slot {
                        let top = !in_scope_parent[v as usize];
                        prop_assert_eq!(
                            plan.slot[plan.internal.rank(g)] == super::UNREAD,
                            top,
                            "node {} slot mark",
                            v
                        );
                    }
                }
                for v in 0..tree.len() as u32 {
                    let Some(&pv) = position.get(&(t as u32, v)) else {
                        if tree.depth(&s, v) >= psi {
                            prop_assert!(
                                tree.is_leaf(v) && tree.leaf_suffixes(v).len() == 1,
                                "in-scope node {} is neither scheduled nor a single-suffix leaf",
                                v
                            );
                            unscheduled += 1;
                        }
                        continue;
                    };
                    for c in tree.children(v) {
                        // In-scope parents have in-scope children (child
                        // depth ≥ parent depth ≥ ψ); only single-suffix
                        // leaves among them go unscheduled.
                        let Some(&pc) = position.get(&(t as u32, c)) else {
                            continue;
                        };
                        prop_assert!(
                            pc < pv,
                            "child {} (pos {}) scheduled after parent {} (pos {})",
                            c, pc, v, pv
                        );
                    }
                }
            }
            prop_assert_eq!(unscheduled, plan.lone_leaves);
        }

        /// The three paper lemmas, verified against brute force on the
        /// normalized pair space {(e_i fwd, e_j fwd/rev) : i < j}.
        #[test]
        fn lemmas_hold(ests in dna_ests(), psi in 3u32..6) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let (pairs, stats) = generate(&s, 2, psi);
            prop_assert_eq!(stats.emitted as usize, pairs.len());

            // Lemma 1: every emission witnesses a maximal common substring
            // of length ≥ ψ at its recorded offsets.
            for p in &pairs {
                check_witness(&s, p);
                prop_assert!(p.mcs_len >= psi);
            }

            let counts = emission_counts(&pairs);
            let n = s.num_ests() as u32;
            for i in 0..n {
                let s1 = pace_seq::EstId(i).str_id(Strand::Forward);
                for j in (i + 1)..n {
                    for strand in [Strand::Forward, Strand::Reverse] {
                        let s2 = pace_seq::EstId(j).str_id(strand);
                        let mcs = brute_mcs(s.seq(s1), s.seq(s2), psi as usize);
                        let got = counts.get(&(s1.0, s2.0)).copied().unwrap_or(0);
                        // Lemma 3: at least one emission when an MCS ≥ ψ exists.
                        if !mcs.is_empty() {
                            prop_assert!(
                                got >= 1,
                                "pair ({}, {}) with MCS {:?} never generated",
                                s1, s2, mcs
                            );
                        }
                        // Corollary 2: at most one emission per distinct MCS.
                        prop_assert!(
                            got <= mcs.len(),
                            "pair ({}, {}) generated {} times but has {} MCSs",
                            s1, s2, got, mcs.len()
                        );
                    }
                }
            }
        }

        /// Emission order is non-increasing in MCS length.
        #[test]
        fn order_non_increasing(ests in dna_ests()) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let (pairs, _) = generate(&s, 2, 3);
            for w in pairs.windows(2) {
                prop_assert!(w[0].mcs_len >= w[1].mcs_len);
            }
        }

        /// Raw counts are consistent: raw = self + mirror + emitted.
        #[test]
        fn stats_balance(ests in dna_ests()) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let (_, st) = generate(&s, 2, 3);
            prop_assert_eq!(
                st.raw_pairs,
                st.discarded_self + st.discarded_mirror + st.emitted
            );
        }
    }
}
