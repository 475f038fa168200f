//! Table 1 — run-times and memory failures of the traditional tools.
//!
//! Paper (one IBM SP processor, 512 MB):
//!
//! | input  | TIGR Assembler | Phrap  | CAP3 |
//! |--------|----------------|--------|------|
//! | 50,000 | X              | 23 min | 5 hrs|
//! | 81,414 | X              | X      | X    |
//!
//! We stand in the traditional pipeline (`pace-baseline`) for all three
//! tools — materialized all-pairs enumeration plus full-width DP — under
//! a memory cap, and run PaCE on the same inputs for the contrast the
//! paper's abstract draws (9 hours estimated vs 2.5 minutes).
//!
//! **Cap calibration.** Pair memory grows superlinearly with n, so a cap
//! scaled naively by the EST ratio would either never trip or always
//! trip at reduced size. We calibrate exactly like the paper's hardware
//! did: the cap is placed between the measured footprints of the two
//! input sizes, so the 50k-scale run fits (as Phrap/CAP3 did) and the
//! 81k-scale run dies (as everything did). The analytic memory model
//! then extrapolates the footprint to the *full* 81,414-EST size, where
//! it exceeds the paper's physical 512 MB — the genuine "X".

use pace_baseline::{
    cluster_baseline, enumerate_footprint, BaselineConfig, BaselineError, MemoryModel,
};
use pace_bench::{banner, dataset, megabytes, paper_cfg, scaled, secs, timed_run};
use pace_obs::metric;
use pace_seq::SequenceStore;

fn main() {
    banner(
        "Table 1: traditional-pipeline run-times under a memory cap",
        "TIGR: X @50k; Phrap: 23min @50k, X @81k; CAP3: 5h @50k, X @81k (512 MB)",
    );

    let cfg = BaselineConfig::default();
    let inputs: Vec<(usize, SequenceStore)> = [(50_000usize, 1001u64), (81_414, 1002)]
        .into_iter()
        .map(|(n_paper, seed)| {
            let ds = dataset(scaled(n_paper), seed);
            (n_paper, SequenceStore::from_ests(&ds.ests).unwrap())
        })
        .collect();

    // Calibrate the cap between the two measured footprints.
    let footprints: Vec<usize> = inputs
        .iter()
        .map(|(_, store)| enumerate_footprint(store, &cfg).1)
        .collect();
    let cap = (footprints[0] + footprints[1]) / 2;
    println!(
        "measured enumeration footprints: {} @50k-scale, {} @81k-scale",
        megabytes(footprints[0]),
        megabytes(footprints[1])
    );
    println!("calibrated cap (midpoint): {}\n", megabytes(cap));

    println!(
        "{:>16} {:>12} {:>14} {:>12} {:>12}",
        "n", "base-mem", "base-1cpu", "base-wall", "PaCE-1cpu"
    );

    for ((n_paper, store), footprint) in inputs.iter().zip(&footprints) {
        let n = store.num_ests();
        let capped = BaselineConfig {
            memory_cap_bytes: Some(cap),
            ..cfg.clone()
        };
        let baseline_cells = match cluster_baseline(store, &capped) {
            Ok(r) => (
                megabytes(r.stats.peak_memory_bytes),
                secs(r.stats.enumerate_secs + r.stats.align_serial_secs),
                secs(r.stats.total_secs),
            ),
            Err(BaselineError::OutOfMemory { .. }) => (
                format!("X ({})", megabytes(*footprint)),
                "X".to_string(),
                "X".to_string(),
            ),
        };
        let (_, pace) = timed_run(store, &paper_cfg(), 1);
        println!(
            "{:>16} {:>12} {:>14} {:>12} {:>12}",
            format!("{n} (~{n_paper})"),
            baseline_cells.0,
            baseline_cells.1,
            baseline_cells.2,
            secs(pace[metric::PHASE_TOTAL]),
        );
    }

    // Extrapolate the baseline's memory need at full 81,414-EST size from
    // a measured run — the analytic version of the paper's "X".
    let probe = &inputs[0].1;
    let r = cluster_baseline(probe, &cfg).unwrap();
    let model = MemoryModel::fit(probe, &r.stats);
    let predicted = model.predict_bytes(81_414, 550.0);
    println!(
        "\nmemory model (fit at n={}): predicted baseline footprint at n=81,414: {}",
        probe.num_ests(),
        megabytes(predicted)
    );
    println!(
        "paper's machines had 512 MB -> {}",
        if predicted > 512 << 20 {
            "X, insufficient memory (matches Table 1)"
        } else {
            "would fit (does NOT match Table 1 at this scale)"
        }
    );
    println!(
        "\n(expected shape: baseline X at the larger size, and the baseline's \
         one-CPU time exceeding PaCE's by a large factor where it runs)"
    );
}
