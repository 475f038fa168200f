//! Sharded-master scaling benchmark.
//!
//! At high rank counts the single clustering master serializes every
//! report: slaves line up behind one thread's DSU and dispatch loop.
//! This bench measures how far sharding the master (`--shards K`)
//! moves that wall. It runs the same fixed-seed workload twice at the
//! same world size `p` — single master (1 + (p−1) slaves) and sharded
//! (reconciler + K sub-masters + (p−1−K) slaves) — and reports
//! `pairs.processed / total-phase seconds` for each, plus the
//! sharded/single throughput ratio.
//!
//! Outputs `$PACE_METRICS_DIR/sharded.json` with both runs' rates; the
//! `sharded_speedup` field is echoed by `scripts/bench_gate.sh`
//! (report-only — thread-oversubscribed wall-clock on a shared runner
//! has no machine-relative baseline).
//!
//! Knobs: `PACE_SHARDED_P` (world size, default 64), `PACE_SHARDED_K`
//! (sub-masters, default 8), `PACE_SCALE` (dataset divisor, default
//! 20 → `PACE_SHARDED_N` ESTs directly when set), `PACE_SMOKE_REPS`
//! (reps per configuration, default 3; best rate across reps wins).

use pace_bench::{banner, dataset, paper_cfg, rule, scaled};
use pace_cluster::{cluster_parallel_obs, ClusterConfig};
use pace_obs::{metric, Json, Obs};
use pace_seq::SequenceStore;

const SHARDED_SEED: u64 = 4100;

fn env_usize(name: &str, default: usize, min: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= min)
        .unwrap_or(default)
}

struct Measured {
    secs: f64,
    pairs_processed: u64,
    rate: f64,
    clusters: usize,
}

/// Best (highest-throughput) rep of `reps` runs of one configuration.
fn measure(store: &SequenceStore, cfg: &ClusterConfig, p: usize, reps: usize) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let obs = Obs::noop();
        let (r, _) = cluster_parallel_obs(store, cfg, p, &obs);
        let snap = obs.registry().snapshot();
        let secs = snap
            .phases
            .get(metric::PHASE_TOTAL)
            .map_or(f64::EPSILON, |a| a.max.max(f64::EPSILON));
        let m = Measured {
            secs,
            pairs_processed: r.stats.pairs_processed,
            rate: r.stats.pairs_processed as f64 / secs,
            clusters: r.num_clusters,
        };
        if best.as_ref().is_none_or(|b| m.rate > b.rate) {
            best = Some(m);
        }
    }
    best.expect("at least one rep")
}

fn main() {
    banner(
        "Sharded-master scaling: single master vs K sub-masters at equal p",
        "sharding the paper's master rank; pairs.processed/sec is the figure of merit",
    );
    let p = env_usize("PACE_SHARDED_P", 64, 4);
    let k = env_usize("PACE_SHARDED_K", 8, 1).min(p.saturating_sub(2));
    let n = env_usize("PACE_SHARDED_N", scaled(12_000), 60);
    let reps = env_usize("PACE_SMOKE_REPS", 3, 1);
    let ds = dataset(n, SHARDED_SEED);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    // Small batches make the master tier the bottleneck at high p —
    // exactly the regime sharding exists for.
    let mut cfg = paper_cfg();
    cfg.batchsize = 12;
    println!(
        "n = {n} ESTs, {} bases, p = {p}, K = {k}, reps = {reps}",
        ds.total_bases()
    );
    println!("{}", rule(72));

    let single = measure(&store, &cfg, p, reps);
    println!(
        "single master : {:>8.3}s  {:>12.0} pairs/s  ({} pairs, {} clusters)",
        single.secs, single.rate, single.pairs_processed, single.clusters
    );

    let mut sharded_cfg = cfg.clone();
    sharded_cfg.shards = k;
    let sharded = measure(&store, &sharded_cfg, p, reps);
    println!(
        "K = {k} sharded : {:>8.3}s  {:>12.0} pairs/s  ({} pairs, {} clusters)",
        sharded.secs, sharded.rate, sharded.pairs_processed, sharded.clusters
    );

    let speedup = sharded.rate / single.rate.max(f64::EPSILON);
    println!("{}", rule(72));
    println!("sharded/single throughput: {speedup:.2}x");

    if single.clusters != sharded.clusters {
        eprintln!(
            "FAIL: sharded run found {} clusters, single-master {} — the \
             differential harness (tests/sharded_identity.rs) should have caught this",
            sharded.clusters, single.clusters
        );
        std::process::exit(1);
    }

    let doc = Json::obj([
        ("schema_version", Json::Num(pace_obs::SCHEMA_VERSION as f64)),
        ("bench", Json::Str("sharded".into())),
        ("p", Json::Num(p as f64)),
        ("shards", Json::Num(k as f64)),
        ("num_ests", Json::Num(n as f64)),
        ("seed", Json::Num(SHARDED_SEED as f64)),
        ("reps", Json::Num(reps as f64)),
        (
            "single",
            Json::obj([
                ("secs", Json::Num(single.secs)),
                ("pairs_processed", Json::Num(single.pairs_processed as f64)),
                ("pairs_per_sec", Json::Num(single.rate)),
            ]),
        ),
        (
            "sharded",
            Json::obj([
                ("secs", Json::Num(sharded.secs)),
                ("pairs_processed", Json::Num(sharded.pairs_processed as f64)),
                ("pairs_per_sec", Json::Num(sharded.rate)),
            ]),
        ),
        ("sharded_speedup", Json::Num(speedup)),
    ]);
    if let Ok(dir) = std::env::var("PACE_METRICS_DIR") {
        let path = std::path::Path::new(&dir).join("sharded.json");
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, pace_obs::report::to_pretty_string(&doc)));
        match write {
            Ok(()) => eprintln!("[metrics] wrote {}", path.display()),
            Err(e) => eprintln!("[metrics] could not write {}: {e}", path.display()),
        }
    }
}
