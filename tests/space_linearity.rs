//! Empirical check of the paper's headline claim: total space stays
//! **linear in the input size**. The suffix-tree forest, the generator's
//! lset arena/marker state, and the sequence store are all measured at
//! two input sizes; their per-base footprint must not grow with `n`
//! (within allocator slack). The baseline's materialized pair list, by
//! contrast, must grow superlinearly per EST — that contrast is Table 1's
//! memory story. The constant is pinned too: the paper's 8-byte node, and
//! generator slots for internal nodes only.

use pace::gst::{assign_buckets, build_in_scope_forest, count_buckets};
use pace::pairgen::{PairGenConfig, PairGenerator};
use pace::{SequenceStore, SimConfig};

fn dataset(n: usize, seed: u64) -> Vec<Vec<u8>> {
    pace::simulate::generate(&SimConfig::sized(n, seed)).ests
}

/// PaCE-side bytes after full pair generation: store + forest + generator.
fn pace_footprint(ests: &[Vec<u8>]) -> (usize, usize) {
    let store = SequenceStore::from_ests(ests).unwrap();
    let forest = pace::gst::build_sequential(&store, 8);
    let mut generator = PairGenerator::new(&store, &forest, PairGenConfig::new(20));
    // Drain in small batches: the on-demand design must keep the
    // high-water mark flat even while producing every pair.
    let mut produced = 0usize;
    loop {
        let batch = generator.next_batch(64);
        if batch.is_empty() {
            break;
        }
        produced += batch.len();
    }
    let bytes = store.memory_bytes() + forest.memory_bytes() + generator.memory_bytes();
    let bases = store.total_input_chars();
    (bytes / bases.max(1), produced)
}

#[test]
fn pace_memory_is_linear_in_input() {
    let (small_per_base, small_pairs) = pace_footprint(&dataset(150, 601));
    let (large_per_base, large_pairs) = pace_footprint(&dataset(600, 602));
    // Pair volume grows superlinearly with n (per-gene coverage is fixed,
    // so this workload quadruples reads and more-than-quadruples pairs)…
    assert!(
        large_pairs > 3 * small_pairs,
        "workload did not scale pair volume: {small_pairs} -> {large_pairs}"
    );
    // …but the resident bytes per input base stay flat: the pair stream
    // is never materialized.
    assert!(
        (large_per_base as f64) < 1.5 * small_per_base as f64,
        "per-base footprint grew {small_per_base} -> {large_per_base} B/base"
    );
}

#[test]
fn baseline_memory_grows_superlinearly_per_est() {
    let cfg = pace::baseline::BaselineConfig::default();
    let small = dataset(150, 603);
    let large = dataset(600, 604);
    let store_s = SequenceStore::from_ests(&small).unwrap();
    let store_l = SequenceStore::from_ests(&large).unwrap();
    let (pairs_s, bytes_s, _) = pace::baseline::enumerate_footprint(&store_s, &cfg);
    let (pairs_l, bytes_l, _) = pace::baseline::enumerate_footprint(&store_l, &cfg);
    // 4× the ESTs ⇒ far more than 4× the materialized pairs: the
    // *pair list* is the superlinear term (at these small sizes the
    // linear store/forest still dominates total bytes; the quadratic
    // curve takes over at the Table 1 scales, as the fitted MemoryModel
    // extrapolation in the table1 binary shows).
    assert!(
        pairs_l as f64 > 6.0 * pairs_s as f64,
        "pairs {pairs_s} -> {pairs_l}"
    );
    let pairs_per_est_s = pairs_s as f64 / 150.0;
    let pairs_per_est_l = pairs_l as f64 / 600.0;
    assert!(
        pairs_per_est_l > 1.4 * pairs_per_est_s,
        "materialized pairs per EST flat: {pairs_per_est_s:.1} -> {pairs_per_est_l:.1}"
    );
    // Total bytes grow at least linearly with the input.
    assert!(bytes_l as f64 > 3.0 * bytes_s as f64);
}

#[test]
fn generator_high_water_mark_is_insensitive_to_batch_size() {
    // Producing pairs 8 at a time or 4096 at a time must not change the
    // generator's memory profile materially (the buffer holds at most
    // one band's emissions beyond the requested batch).
    let ests = dataset(200, 605);
    let store = SequenceStore::from_ests(&ests).unwrap();
    let forest = pace::gst::build_sequential(&store, 8);

    let measure = |batch: usize| {
        let mut g = PairGenerator::new(&store, &forest, PairGenConfig::new(20));
        let mut peak = 0usize;
        loop {
            let got = g.next_batch(batch);
            peak = peak.max(g.memory_bytes());
            if got.is_empty() {
                break;
            }
        }
        peak
    };
    let tiny = measure(8);
    let huge = measure(4096);
    assert!(
        (huge as f64) < 1.5 * tiny as f64 && (tiny as f64) < 1.5 * huge as f64,
        "batch size changed the memory profile: {tiny} vs {huge}"
    );
}

/// The paper's node holds a rightmost-leaf pointer and one more word (an
/// internal node's depth, a leaf's arena boundary), so an in-scope forest
/// takes 8 bytes per node and 8 per suffix occurrence. Only internal
/// nodes ever hold lsets, so the generator sets up a slot for each of
/// them and none for a leaf.
#[test]
fn nodes_take_eight_bytes_and_only_internal_nodes_get_slots() {
    assert_eq!(std::mem::size_of::<pace::gst::Node>(), 8);
    let store = SequenceStore::from_ests(&dataset(300, 606)).unwrap();
    let partition = assign_buckets(&count_buckets(&store, 8), 1);
    let forest = build_in_scope_forest(&store, &partition, 0, 20);
    let (nodes, suffixes) = (forest.num_nodes(), forest.num_suffixes());
    assert_eq!(forest.memory_bytes(), 8 * (nodes + suffixes));

    let (mut internal, mut multi_suffix_leaves) = (0, 0);
    for t in &forest.subtrees {
        for v in 0..t.len() as u32 {
            if !t.is_leaf(v) {
                internal += 1;
            } else if t.leaf_suffixes(v).len() > 1 {
                multi_suffix_leaves += 1;
            }
        }
    }
    assert!(0 < internal && internal < nodes / 2);
    let g = PairGenerator::new(&store, &forest, PairGenConfig::new(20));
    let setup = 12 * suffixes // the lset arena: string id, offset, link
        + 8 * store.num_strings() // the marker array
        + 8 * (internal + multi_suffix_leaves) // the schedule
        + 4 * forest.subtrees.len() // each subtree's first position
        + 12 * nodes.div_ceil(64) // which positions are internal, ranked
        + 4 * internal; // the slots
    assert_eq!(g.memory_bytes(), setup);
}
