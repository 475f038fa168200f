//! Figure 8 — run-time vs. batchsize (n = 20,000, p = 32 in the paper).
//!
//! Paper: a U-shaped curve between batchsize 5 and 80 with the optimum
//! at 40–60 pairs. Small batches mean more master–slave round trips;
//! big batches make slaves act on stale clustering information, wasting
//! alignments. Also reported: the master stays under 2% busy even at
//! p = 128, so one master is not a bottleneck.
//!
//! In-process channels cost nanoseconds, so the left arm of the U
//! (communication overhead) cannot appear in wall clock here; the
//! measured `messages` column shows the mechanism, and the `modeled`
//! column prices each message at the IBM SP's ~100 µs user-space latency
//! (DESIGN.md §3) on top of the measured alignment time — that column is
//! where the U re-emerges.

use pace_bench::{banner, dataset, max_ranks, paper_cfg, scaled, secs, timed_run};
use pace_obs::metric;
use pace_seq::SequenceStore;

/// Modeled per-message latency of the paper's interconnect.
const MSG_LATENCY_SECS: f64 = 100e-6;

fn main() {
    banner(
        "Figure 8: run-time vs batchsize (n ≈ 20,000/σ)",
        "U-shaped, optimum at batchsize 40–60; master busy < 2%",
    );

    let p = max_ranks().clamp(2, 8);
    let n = scaled(20_000);
    let ds = dataset(n, 7000);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    println!("n = {n}, p = {p} (stand-in for the paper's 32)\n");

    println!(
        "{:>10} {:>10} {:>10} {:>13} {:>12} {:>10}",
        "batchsize", "wall", "messages", "pairs aligned", "master busy", "modeled"
    );
    for batchsize in [5usize, 10, 20, 40, 60, 80] {
        let mut cfg = paper_cfg();
        cfg.batchsize = batchsize;
        let (r, t) = timed_run(&store, &cfg, p);
        let modeled = t[metric::PHASE_ALIGNMENT] + r.stats.messages as f64 * MSG_LATENCY_SECS;
        println!(
            "{:>10} {:>10} {:>10} {:>13} {:>11.2}% {:>10}",
            batchsize,
            secs(t[metric::PHASE_TOTAL]),
            r.stats.messages,
            r.stats.pairs_processed,
            100.0 * r.stats.master_busy_frac,
            secs(modeled)
        );
    }
    println!(
        "\n(small batch ⇒ many messages; large batch ⇒ extra alignments from \
         stale cluster info — the two ends of the paper's U curve; `modeled` \
         adds the paper's ~100 µs interconnect latency per message)"
    );
}
