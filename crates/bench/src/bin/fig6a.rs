//! Figure 6a — run-time vs. number of processors.
//!
//! Paper: four curves (n = 10,000 / 20,000 / 40,000 / 81,414), run-time
//! dropping near-hyperbolically from p = 8 to p = 128; e.g. the 81,414
//! set takes ~300 s at small p and under 150 s at 64 (the abstract's
//! "2.5 minutes on a 64-processor IBM SP").
//!
//! Expected shape: for each n the series decreases with p, and larger n
//! sits strictly above smaller n at every p.
//!
//! Times are the modeled critical path (measured serial work + the real
//! LPT bucket partition — see `pace_bench::model`); on a multi-core host
//! measured wall clock is appended.

use pace_bench::model::ScalingModel;
use pace_bench::{banner, dataset, max_ranks, paper_cfg, scaled, secs, timed_run};
use pace_obs::metric;
use pace_seq::SequenceStore;

fn main() {
    banner(
        "Figure 6a: run-time vs number of processors",
        "run-times scale down with p for every data size",
    );

    let sizes = [10_000usize, 20_000, 40_000, 81_414];
    let ps = [8usize, 16, 32, 64, 128];

    println!("modeled critical path:");
    print!("{:>18}", "n \\ p");
    for &p in &ps {
        print!("{:>10}", p);
    }
    println!();

    for &n_paper in sizes.iter() {
        let n = scaled(n_paper);
        // One seed for every size: cross-size comparisons stay smooth.
        let ds = dataset(n, 4242);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (model, _) = ScalingModel::fit(&store, &paper_cfg());
        print!("{:>18}", format!("{n} (~{n_paper})"));
        for &p in &ps {
            print!("{:>10}", secs(model.predict(p)[metric::PHASE_TOTAL]));
        }
        println!();
    }

    if max_ranks() > 1 {
        println!("\nmeasured wall clock on this host (p ≤ hardware threads):");
        let mut host_ps = Vec::new();
        let mut p = 2;
        while p <= max_ranks() {
            host_ps.push(p);
            p *= 2;
        }
        print!("{:>18}", "n \\ p");
        for &p in &host_ps {
            print!("{:>10}", p);
        }
        println!();
        for &n_paper in sizes.iter() {
            let n = scaled(n_paper);
            let ds = dataset(n, 4242);
            let store = SequenceStore::from_ests(&ds.ests).unwrap();
            print!("{:>18}", format!("{n} (~{n_paper})"));
            for &p in &host_ps {
                let (_, t) = timed_run(&store, &paper_cfg(), p);
                print!("{:>10}", secs(t[metric::PHASE_TOTAL]));
            }
            println!();
        }
    }
    println!("\n(series should fall with p and rise with n, as in Figure 6a)");
}
