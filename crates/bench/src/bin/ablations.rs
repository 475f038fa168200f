//! Ablations of the design choices DESIGN.md calls out.
//!
//! Not a paper table — these isolate the mechanisms the paper credits
//! for its run-time ("a combination of algorithmic techniques to reduce
//! the total work without sacrificing quality"):
//!
//! 1. decreasing-MCS pair order vs a truly shuffled pair stream
//!    (quantifies how much the greedy order amplifies pair skipping);
//! 2. cluster-aware pair skipping on vs off;
//! 3. anchored banded extension vs full-width DP;
//! 4. the ψ threshold's effect on pair volume and quality.

use pace_bench::{banner, dataset, paper_cfg, scaled, secs, timed_run};
use pace_cluster::{align_pair, ClusterConfig, ClusterCore};
use pace_dsu::DisjointSets;
use pace_obs::metric;
use pace_pairgen::{CandidatePair, PairGenConfig, PairGenerator};
use pace_quality::assess;
use pace_seq::SequenceStore;
use std::time::Instant;

/// Feed an explicit pair stream through the master's skip/align/merge
/// core; returns (aligned, skipped, labels, seconds).
fn consume_pairs(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    pairs: &[CandidatePair],
) -> (u64, u64, Vec<usize>, f64) {
    let started = Instant::now();
    let mut core = ClusterCore::new(DisjointSets::new(store.num_ests()), cfg);
    for pair in pairs {
        if !core.skip(pair) {
            core.accept(&align_pair(store, pair, cfg));
        }
    }
    let labels = core.sets.labels();
    let s = core.stats;
    let secs = started.elapsed().as_secs_f64();
    (s.pairs_processed, s.pairs_skipped, labels, secs)
}

fn report(label: &str, aligned: u64, skipped: u64, time: f64, labels: &[usize], truth: &[usize]) {
    let q = assess(labels, truth);
    let (oq, ov, _, cc) = q.as_percentages();
    println!(
        "{label:<34} {:>9} {:>10} {:>10} {:>7.2} {:>6.2} {:>7.2}",
        aligned,
        skipped,
        secs(time),
        oq,
        ov,
        cc
    );
}

/// Deterministic Fisher–Yates with an LCG (no RNG dependency needed).
fn shuffle(pairs: &mut [CandidatePair], seed: u64) {
    let mut x = seed | 1;
    for i in (1..pairs.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((x >> 33) as usize) % (i + 1);
        pairs.swap(i, j);
    }
}

fn main() {
    banner(
        "Ablations: which mechanism buys what",
        "order + skipping cut alignments; banding cuts per-alignment cost",
    );

    let n = scaled(20_000);
    let ds = dataset(n, 8000);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    println!("n = {n} ESTs (sequential master logic for clean accounting)\n");

    println!(
        "{:<34} {:>9} {:>10} {:>10} {:>7} {:>6} {:>7}",
        "variant", "aligned", "skipped", "time", "OQ%", "OV%", "CC%"
    );

    let cfg = paper_cfg();
    let forest = pace_gst::build_sequential(&store, cfg.window_w);
    let sorted_pairs =
        PairGenerator::new(&store, &forest, PairGenConfig::new(cfg.psi)).generate_all();

    // 1a. The paper's order: decreasing maximal-common-substring length.
    let (a, s, labels, t) = consume_pairs(&store, &cfg, &sorted_pairs);
    report("decreasing-MCS order (PaCE)", a, s, t, &labels, &ds.truth);

    // 1b. The same pairs, truly shuffled: the traditional arbitrary order.
    let mut shuffled = sorted_pairs.clone();
    shuffle(&mut shuffled, 0xDEAD_BEEF);
    let (a, s, labels, t) = consume_pairs(&store, &cfg, &shuffled);
    report("shuffled pair order", a, s, t, &labels, &ds.truth);

    // 2. No cluster-aware skipping: every pair is aligned.
    let mut noskip = cfg.clone();
    noskip.skip_clustered_pairs = false;
    let (a, s, labels, t) = consume_pairs(&store, &noskip, &sorted_pairs);
    report("no pair skipping", a, s, t, &labels, &ds.truth);

    // 3. Full-width DP: band as wide as a read (quadratic extension).
    let mut fullwidth = cfg.clone();
    fullwidth.band_radius = 700;
    let (a, s, labels, t) = consume_pairs(&store, &fullwidth, &sorted_pairs);
    report("full-width DP (no banding)", a, s, t, &labels, &ds.truth);

    // 4. ψ sweep (via the full driver: pair volume changes with ψ).
    println!();
    for psi in [12u32, 20, 35, 60] {
        let mut c = paper_cfg();
        c.psi = psi;
        let (r, t) = timed_run(&store, &c, 1);
        report(
            &format!("psi = {psi}"),
            r.stats.pairs_processed,
            r.stats.pairs_skipped,
            t[metric::PHASE_TOTAL],
            &r.labels,
            &ds.truth,
        );
    }

    println!(
        "\n(expected: decreasing-MCS aligns the fewest pairs; shuffling increases \
         alignments at equal quality; no-skip aligns everything; full-width DP \
         multiplies per-pair cost; low ψ inflates pair volume, high ψ loses reads)"
    );
}
