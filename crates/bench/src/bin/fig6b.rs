//! Figure 6b — run-time vs. number of ESTs at a fixed processor count.
//!
//! Paper: p = 64; run-time grows from ~10 s at 10,000 ESTs to ~140 s at
//! 81,414 — smooth, faster-than-linear growth (pair volume grows with
//! per-gene coverage), but nowhere near quadratic.
//!
//! Expected shape: monotone growth in n; time-per-EST grows mildly.
//! Times are the modeled critical path at p = 64 (see
//! `pace_bench::model`); the measured serial time is shown for scale.

use pace_bench::model::ScalingModel;
use pace_bench::{banner, dataset, paper_cfg, scaled, secs};
use pace_obs::metric;
use pace_seq::SequenceStore;

fn main() {
    banner(
        "Figure 6b: run-time vs number of ESTs at fixed p = 64",
        "p = 64: ~10 s at 10k ESTs up to ~140 s at 81,414",
    );

    println!(
        "{:>18} {:>12} {:>14} {:>16}",
        "n", "serial", "modeled p=64", "p=64 per kEST"
    );

    for n_paper in [10_000usize, 20_000, 40_000, 60_000, 81_414] {
        let n = scaled(n_paper);
        // One seed for every size: the curve reflects n, not seed luck.
        let ds = dataset(n, 5252);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (model, _) = ScalingModel::fit(&store, &paper_cfg());
        let t64 = model.predict(64)[metric::PHASE_TOTAL];
        println!(
            "{:>18} {:>12} {:>14} {:>16}",
            format!("{n} (~{n_paper})"),
            secs(model.serial[metric::PHASE_TOTAL]),
            secs(t64),
            secs(t64 * 1000.0 / n as f64)
        );
    }
    println!("\n(monotone growth in n, mildly superlinear — the Figure 6b shape)");
}
