//! Quickstart: simulate a small EST collection, cluster it in parallel,
//! and assess the result against the known gene structure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pace::obs::Obs;
use pace::{Pace, PaceConfig, RunReport, SequenceStore, SimConfig};

fn main() {
    // 1. Data. The paper uses 81,414 Arabidopsis ESTs; we synthesize a
    //    ground-truthed stand-in (see DESIGN.md §3 for the substitution
    //    rationale). Reads average ~550 bases, 2% sequencing error, both
    //    strands — the biology the paper describes.
    let sim = SimConfig::sized(2_000, 7);
    let data = pace::simulate::generate(&sim);
    println!(
        "simulated {} ESTs ({} bases) from {} genes",
        data.len(),
        data.total_bases(),
        data.genes.len()
    );

    // 2. Cluster with the paper's settings: window 8, ψ 20, batchsize 60,
    //    one master plus three slaves. Phase times land in `obs`.
    let mut config = PaceConfig::paper();
    config.num_processors = 4;
    let store = SequenceStore::from_ests(&data.ests).expect("simulated data is always valid DNA");
    let obs = Obs::noop();
    let outcome = Pace::new(config)
        .cluster_store_obs(&store, &obs)
        .expect("the paper's configuration is valid");

    // 3. Report. OQ/OV/UN/CC are the paper's Table 2 metrics.
    let quality = outcome.quality(&data.truth);
    let snap = obs.registry().snapshot();
    println!("{}", RunReport::new(&outcome, &snap, Some(quality)));
    println!(
        "true gene count (clusters a perfect run would find): {}",
        data.true_cluster_count()
    );

    // The decreasing-MCS order plus cluster-aware skipping is the
    // paper's big run-time win: most generated pairs are never aligned.
    let s = &outcome.result.stats;
    if s.pairs_generated > 0 {
        println!(
            "alignment work avoided: {:.1}% of generated pairs skipped",
            100.0 * s.pairs_skipped as f64 / s.pairs_generated as f64
        );
    }
}
