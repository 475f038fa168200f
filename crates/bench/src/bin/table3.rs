//! Table 3 — time spent in each component for 20,000 ESTs.
//!
//! Paper (seconds on the IBM SP):
//!
//! | p   | Partitioning | GST build | Node sort | Alignment | Total |
//! |-----|--------------|-----------|-----------|-----------|-------|
//! | 8   | 3            | 180       | 5         | 42        | 230   |
//! | 16  | 1            | 91        | 2         | 27        | 121   |
//! | 32  | 1            | 45        | 1         | 13        | 60    |
//! | 64  | 0.5          | 22        | 0.5       | 8         | 31    |
//! | 128 | 0.5          | 11        | 0.5       | 5         | 17    |
//!
//! Expected shape: every component shrinks with p; GST construction
//! dominates at this (small) size; partitioning and node sorting are
//! negligible throughout.
//!
//! On hosts with one hardware thread the per-p rows are the modeled
//! critical path of `pace_bench::model` (measured serial phase work +
//! the real LPT bucket partition); on multi-core hosts the measured
//! wall-clock of the threaded run is printed alongside.

use pace_bench::model::ScalingModel;
use pace_bench::{
    banner, critical_path, dataset, max_ranks, maybe_write_metrics, paper_cfg, scaled,
};
use pace_cluster::cluster_parallel_obs;
use pace_obs::{metric, Json, Obs};
use pace_seq::SequenceStore;

fn main() {
    banner(
        "Table 3: component breakdown, n ≈ 20,000 / σ",
        "GST build dominates at n=20k; all components scale down with p",
    );

    let n = scaled(20_000);
    let ds = dataset(n, 3000);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    println!("n = {n} ESTs, {} bases", ds.total_bases());

    let (model, _) = ScalingModel::fit(&store, &paper_cfg());
    let t = &model.serial;
    println!(
        "measured serial phase work: partition {:.3}s, GST {:.3}s, sort {:.3}s, \
         pair generation {:.3}s, align {:.3}s\n",
        t[metric::PHASE_PARTITIONING],
        t[metric::PHASE_GST_CONSTRUCTION],
        t[metric::PHASE_NODE_SORTING],
        t[metric::PHASE_PAIR_GENERATION],
        t[metric::PHASE_ALIGNMENT]
    );

    println!("modeled critical path (measured work + real bucket partition):");
    println!(
        "{:>4} {:>13} {:>10} {:>10} {:>10} {:>8}",
        "p", "Partitioning", "GST", "NodeSort", "Align", "Total"
    );
    for p in [8usize, 16, 32, 64, 128] {
        let t = model.predict(p);
        println!(
            "{:>4} {:>13.3} {:>10.3} {:>10.3} {:>10.3} {:>8.3}",
            p,
            t[metric::PHASE_PARTITIONING],
            t[metric::PHASE_GST_CONSTRUCTION],
            t[metric::PHASE_NODE_SORTING],
            t[metric::PHASE_ALIGNMENT],
            t[metric::PHASE_TOTAL]
        );
    }

    if max_ranks() > 1 {
        println!("\nmeasured wall clock of the threaded runtime on this host:");
        println!(
            "{:>4} {:>13} {:>10} {:>10} {:>10} {:>8}",
            "p", "Partitioning", "GST", "NodeSort", "Align", "Total"
        );
        let mut p = 2;
        while p <= max_ranks() {
            // Read the component times back out of the shared metric
            // registry: the per-phase max over ranks is the critical
            // path, which is what Table 3 reports.
            let obs = Obs::noop();
            cluster_parallel_obs(&store, &paper_cfg(), p, &obs);
            let t = critical_path(&obs.registry().snapshot());
            println!(
                "{:>4} {:>13.3} {:>10.3} {:>10.3} {:>10.3} {:>8.3}",
                p,
                t[metric::PHASE_PARTITIONING],
                t[metric::PHASE_GST_CONSTRUCTION],
                t[metric::PHASE_NODE_SORTING],
                t[metric::PHASE_ALIGNMENT],
                t[metric::PHASE_TOTAL]
            );
            maybe_write_metrics(
                &format!("table3_p{p}"),
                &obs,
                vec![
                    ("p".to_string(), Json::Num(p as f64)),
                    ("num_ests".to_string(), Json::Num(n as f64)),
                ],
            );
            p *= 2;
        }
    } else {
        println!(
            "\n(this host has 1 hardware thread, so threaded wall clock cannot \
             speed up; see DESIGN.md §3 for the substitution rationale)"
        );
    }
}
