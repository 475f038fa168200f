//! Byte-identity pins for the linear-time phase rewrite.
//!
//! The counting-sort subtree builder, the depth-bucketed node schedule,
//! the dense-slot pair generator, and the dynamic rayon-shim scheduler
//! must all be *pure speedups*:
//! the trees, the emitted pair stream (order included), and the final
//! partitions have to be bit-for-bit what the comparison-sort code
//! produced. The fingerprints below were captured from the pre-rewrite
//! implementation on pinned simulator seeds; any divergence means the
//! rewrite changed observable behaviour, not just its running time.
//!
//! The forest pins describe the full GST ([`build_sequential`]). The
//! drivers build the in-scope forest instead, which must emit the same
//! pair stream: its twins below hash to the same pins.

use pace::cluster::{cluster_parallel, cluster_sequential, ClusterConfig};
use pace::gst::{
    assign_buckets, build_in_scope_forest, build_sequential, count_buckets, LocalForest,
};
use pace::pairgen::{GenStats, PairGenConfig, PairGenerator, PairOrder};
use pace::{SequenceStore, SimConfig};

/// Pinned seeds; chosen to overlap the CI fault-matrix seeds.
const SEEDS: [u64; 3] = [11, 47, 3000];

/// Pair-stream pins at w 8, ψ 20, captured from the sort_by_key
/// implementation at the parent of the linear-phase rewrite.
const PAIR_STREAM_PINNED: [u64; 3] = [0xf900f38f9e2f22f8, 0xa718d934efee4a1b, 0xbfb8720fd2773176];

/// Pair-stream-and-stats pins, captured at the parent of the dense-slot
/// generator rewrite. Per seed: a repeat-heavy library (w 8, ψ 20), a
/// short window (w 4, ψ 8), and tree order (w 8, ψ 20,
/// `PairOrder::Arbitrary`).
const STREAM_AND_STATS_PINNED: [[u64; 3]; 3] = [
    [0x82cfb79c247b985d, 0x6adf8047572f9f4e, 0x9b43ec0783e43bec],
    [0xa99ac05d9e2a7756, 0x1fd4159fde47a7f9, 0xa57672756442764c],
    [0xbbf2bb7cf2f5a616, 0x308ce9e2ee42dd47, 0x8aa5ffae6b429ca8],
];

fn dataset(n: usize, seed: u64) -> SequenceStore {
    let ds = pace::simulate::generate(&SimConfig {
        chimera_prob: 0.002,
        expression: pace::simulate::Expression::Zipf(0.6),
        ..SimConfig::sized(n, seed)
    });
    SequenceStore::from_ests(&ds.ests).unwrap()
}

/// Order-sensitive FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Hash the full promising-pair stream into `h`, order included, and
/// return the exhausted generator's counters. The stream pins both the
/// subtree construction (leaf/arena layout) and the node schedule
/// (emission order).
fn hash_pair_stream(h: &mut Fnv, store: &SequenceStore, w: usize, cfg: PairGenConfig) -> GenStats {
    hash_forest_pairs(h, store, &build_sequential(store, w), cfg)
}

/// [`hash_pair_stream`] over a given forest.
fn hash_forest_pairs(
    h: &mut Fnv,
    store: &SequenceStore,
    forest: &LocalForest,
    cfg: PairGenConfig,
) -> GenStats {
    let mut g = PairGenerator::new(store, forest, cfg);
    loop {
        let batch = g.next_batch(512);
        if batch.is_empty() {
            break;
        }
        for p in &batch {
            h.push(p.s1.0 as u64);
            h.push(p.s2.0 as u64);
            h.push(p.off1 as u64);
            h.push(p.off2 as u64);
            h.push(p.mcs_len as u64);
        }
    }
    g.stats()
}

/// Fingerprint of the pair stream at w 8.
fn pair_stream_fingerprint(store: &SequenceStore, psi: u32) -> u64 {
    let mut h = Fnv::new();
    hash_pair_stream(&mut h, store, 8, PairGenConfig::new(psi));
    h.finish()
}

/// Fingerprint of the pair stream followed by all five exhausted
/// [`GenStats`] counters.
fn pair_stream_and_stats_fingerprint(store: &SequenceStore, w: usize, cfg: PairGenConfig) -> u64 {
    let mut h = Fnv::new();
    let st = hash_pair_stream(&mut h, store, w, cfg);
    push_stats(&mut h, st);
    h.finish()
}

fn push_stats(h: &mut Fnv, st: GenStats) {
    for counter in [
        st.nodes_processed,
        st.raw_pairs,
        st.discarded_self,
        st.discarded_mirror,
        st.emitted,
    ] {
        h.push(counter);
    }
}

/// The single-rank in-scope forest the drivers build.
fn in_scope_forest(store: &SequenceStore, w: usize, psi: u32) -> LocalForest {
    let partition = assign_buckets(&count_buckets(store, w), 1);
    build_in_scope_forest(store, &partition, 0, psi)
}

/// Single-suffix leaves of depth ≥ ψ in the full forest whose parent is
/// shallower than ψ (a bucket's root counts as having such a parent):
/// the nodes the in-scope forest leaves out that a generator would count.
fn lone_leaves_under_shallow_parents(store: &SequenceStore, full: &LocalForest, psi: u32) -> u64 {
    let mut n = 0;
    for t in &full.subtrees {
        let mut parent_depth = vec![0u32; t.len()];
        for v in 0..t.len() as u32 {
            for c in t.children(v) {
                parent_depth[c as usize] = t.depth(store, v);
            }
            let lone = t.is_leaf(v) && t.leaf_suffixes(v).len() == 1;
            if lone && t.depth(store, v) >= psi && parent_depth[v as usize] < psi {
                n += 1;
            }
        }
    }
    n
}

/// The in-scope twin of [`pair_stream_and_stats_fingerprint`]: the
/// in-scope pair stream, then its counters, which must equal the full
/// forest's except `nodes_processed`, short by exactly the lone leaves
/// the gate dropped. Those are added back before hashing.
fn in_scope_stream_and_stats_fingerprint(
    store: &SequenceStore,
    w: usize,
    cfg: PairGenConfig,
) -> u64 {
    let full = build_sequential(store, w);
    let full_stats = hash_forest_pairs(&mut Fnv::new(), store, &full, cfg);
    let mut h = Fnv::new();
    let st = hash_forest_pairs(&mut h, store, &in_scope_forest(store, w, cfg.psi), cfg);
    let dropped = lone_leaves_under_shallow_parents(store, &full, cfg.psi);
    assert!(dropped > 0, "the gate should drop lone leaves here");
    assert_eq!(
        GenStats {
            nodes_processed: full_stats.nodes_processed,
            ..st
        },
        full_stats,
        "in-scope counters other than nodes_processed diverged"
    );
    assert_eq!(full_stats.nodes_processed - st.nodes_processed, dropped);
    push_stats(
        &mut h,
        GenStats {
            nodes_processed: st.nodes_processed + dropped,
            ..st
        },
    );
    h.finish()
}

/// A repeat-heavy library: two 200 bp motifs carried by 90% of the
/// genes, so many lsets share strings across children.
fn repeat_heavy_dataset(seed: u64) -> SequenceStore {
    let ds = pace::simulate::generate(&SimConfig {
        repeat_motifs: 2,
        repeat_len: 200,
        repeat_gene_prob: 0.9,
        ..SimConfig::sized(200, seed)
    });
    SequenceStore::from_ests(&ds.ests).unwrap()
}

/// Fingerprint of the DFS node arrays of every subtree, order included:
/// per node its rightmost leaf, its depth and its run of the suffix arena
/// (`0..0` for an internal node), as the accessors rebuild them.
fn forest_fingerprint(store: &SequenceStore) -> u64 {
    let forest = build_sequential(store, 8);
    let mut h = Fnv::new();
    for t in &forest.subtrees {
        h.push(t.bucket as u64);
        for v in 0..t.len() as u32 {
            let run = t.leaf_range(v);
            h.push(t.rightmost(v) as u64);
            h.push(t.depth(store, v) as u64);
            h.push(run.start as u64);
            h.push(run.end as u64);
        }
        for s in t.suffixes() {
            h.push(s.sid as u64);
            h.push(s.off as u64);
        }
    }
    h.finish()
}

/// Fingerprint of a canonical partition (clusters ordered by smallest
/// member, members ascending).
fn partition_fingerprint(labels: &[usize]) -> u64 {
    let mut by_label: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &l) in labels.iter().enumerate() {
        by_label.entry(l).or_default().push(i);
    }
    let mut clusters: Vec<Vec<usize>> = by_label.into_values().collect();
    clusters.sort_by_key(|c| c[0]);
    let mut h = Fnv::new();
    for c in &clusters {
        h.push(c.len() as u64);
        for &i in c {
            h.push(i as u64);
        }
    }
    h.finish()
}

fn cfg() -> ClusterConfig {
    ClusterConfig {
        psi: 20,
        ..Default::default()
    }
}

#[test]
fn pair_stream_matches_pre_rewrite_fingerprints() {
    for (seed, expect) in SEEDS.into_iter().zip(PAIR_STREAM_PINNED) {
        let store = dataset(160, seed);
        let got = pair_stream_fingerprint(&store, 20);
        assert_eq!(
            got, expect,
            "pair stream diverged from pre-rewrite order (seed {seed}): got {got:#018x}"
        );
    }
}

#[test]
fn pair_stream_and_stats_match_pinned_fingerprints() {
    let arbitrary = PairGenConfig {
        order: PairOrder::Arbitrary,
        ..PairGenConfig::new(20)
    };
    let got = SEEDS.map(|seed| {
        let store = dataset(160, seed);
        [
            pair_stream_and_stats_fingerprint(
                &repeat_heavy_dataset(seed),
                8,
                PairGenConfig::new(20),
            ),
            pair_stream_and_stats_fingerprint(&store, 4, PairGenConfig::new(8)),
            pair_stream_and_stats_fingerprint(&store, 8, arbitrary),
        ]
    });
    assert_eq!(
        got, STREAM_AND_STATS_PINNED,
        "pair stream or GenStats diverged (rows: seeds {SEEDS:?}; columns: repeat-heavy, w 4 psi 8, arbitrary order)"
    );
}

#[test]
fn in_scope_pair_stream_matches_pre_rewrite_fingerprints() {
    for (seed, expect) in SEEDS.into_iter().zip(PAIR_STREAM_PINNED) {
        let store = dataset(160, seed);
        let forest = in_scope_forest(&store, 8, 20);
        forest.validate(&store).unwrap();
        let mut h = Fnv::new();
        hash_forest_pairs(&mut h, &store, &forest, PairGenConfig::new(20));
        let got = h.finish();
        assert_eq!(
            got, expect,
            "in-scope pair stream diverged from the full forest's (seed {seed}): got {got:#018x}"
        );
    }
}

#[test]
fn in_scope_pair_stream_and_stats_match_pinned_fingerprints() {
    let arbitrary = PairGenConfig {
        order: PairOrder::Arbitrary,
        ..PairGenConfig::new(20)
    };
    let got = SEEDS.map(|seed| {
        let store = dataset(160, seed);
        [
            in_scope_stream_and_stats_fingerprint(
                &repeat_heavy_dataset(seed),
                8,
                PairGenConfig::new(20),
            ),
            in_scope_stream_and_stats_fingerprint(&store, 4, PairGenConfig::new(8)),
            in_scope_stream_and_stats_fingerprint(&store, 8, arbitrary),
        ]
    });
    assert_eq!(
        got, STREAM_AND_STATS_PINNED,
        "in-scope pair stream or GenStats diverged (rows: seeds {SEEDS:?}; columns: repeat-heavy, w 4 psi 8, arbitrary order)"
    );
}

/// At 2,000 ESTs the decreasing-MCS schedule runs through seven bands,
/// three of them the full 2^18 nodes; the 160-EST pins, at about 85,000
/// scheduled nodes, end in their third band. The stream and its
/// counters are pinned at the generator that walked the schedule node
/// by node.
#[test]
fn banded_in_scope_pair_stream_matches_the_node_by_node_pin() {
    let store = dataset(2000, 1);
    let mut h = Fnv::new();
    let stats = hash_forest_pairs(
        &mut h,
        &store,
        &in_scope_forest(&store, 8, 20),
        PairGenConfig::new(20),
    );
    let got = h.finish();
    assert_eq!(
        got, 0x8bab1af1c649ac9b,
        "banded pair stream diverged: got {got:#018x}"
    );
    assert_eq!(
        stats,
        GenStats {
            nodes_processed: 2_339_649,
            raw_pairs: 232_025,
            discarded_self: 1,
            discarded_mirror: 116_012,
            emitted: 116_012,
        }
    );
}

#[test]
fn forest_matches_pre_rewrite_fingerprints() {
    const PINNED: [u64; 3] = [0x298024df8256734b, 0x6e36eeb1b1d2cbdb, 0xdc2cff80282e2c0d];
    for (seed, expect) in SEEDS.into_iter().zip(PINNED) {
        let store = dataset(160, seed);
        let got = forest_fingerprint(&store);
        assert_eq!(
            got, expect,
            "forest layout diverged from pre-rewrite builder (seed {seed}): got {got:#018x}"
        );
    }
}

#[test]
fn partitions_match_pre_rewrite_fingerprints() {
    const PINNED: [u64; 3] = [0x4fbb913f8e28a823, 0xd129aacd76bfe42b, 0xa6c9f14f6cd9e289];
    for (seed, expect) in SEEDS.into_iter().zip(PINNED) {
        let store = dataset(160, seed);
        let seq = cluster_sequential(&store, &cfg());
        let par = cluster_parallel(&store, &cfg(), 3);
        let got = partition_fingerprint(&seq.labels);
        assert_eq!(
            got, expect,
            "sequential partition diverged (seed {seed}): got {got:#018x}"
        );
        assert_eq!(
            partition_fingerprint(&par.labels),
            got,
            "parallel partition diverged from sequential (seed {seed})"
        );
    }
}
