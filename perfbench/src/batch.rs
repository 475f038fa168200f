//! The batch workload, `library_seq`: the paper's benchmark library
//! through the sequential driver.
//!
//! The measured section runs clustering calls, each after a short slice
//! of repeated set-ups, until the run's time is up. The traced run
//! replays the skip→align→union loop and the incremental fold path
//! (fold → checkpoint → read view → queries) on the same input, and runs
//! the master/slave driver once with p = 2 for its protocol counters.

use crate::load::{self, build_view, dir_bytes, Daemon, QueryLog};
use crate::replay::{report_kernels, report_layers, report_ledger, Replay};
use crate::{canonical, est_id, median, peak_rss_mb, ratio, secs, setup_s, timed, Opts, Outcome};
use pace_cluster::{cluster_parallel, cluster_sequential, ClusterConfig, ClusterResult};
use pace_core::IncrementalClusterer;
use pace_dsu::DisjointSets;
use pace_seq::SequenceStore;
use pace_serve::save_state;
use pace_simulate::EstDataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io;
use std::time::Instant;

/// Share of the traced run's seconds the reader queries the served state.
const QUERY_SHARE: f64 = 0.2;

/// Processes of the traced run's master/slave call: 1 master + 1 slave.
const PROTOCOL_PROCS: usize = 2;

fn conserved(r: &ClusterResult) -> bool {
    let s = &r.stats;
    s.pairs_generated == s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        && s.faults.lost_pairs == 0
}

pub fn run(opts: &Opts, out: &mut Outcome) -> io::Result<()> {
    let n = opts.sizes.library_ests;
    let cfg = pace_bench::paper_cfg();
    let mut setup = Vec::new();
    let mut store_times = Vec::new();
    let (ds, store) = set_up(opts, n, &mut setup, &mut store_times)?;
    out.info("input_ests", ds.len());
    out.info("input_bases", ds.total_bases());

    if opts.trace {
        traced(opts, out, &cfg, &ds, &store, median(&mut store_times))
    } else {
        untraced(opts, out, &cfg, &ds, &store, &mut setup)
    }
}

/// Set-up, repeated for [`Sizes::setup_slice_s`](crate::Sizes) and at
/// least once: generate the input and build its store. Adds each
/// set-up's time to `times` and its store build's to `store_times`, and
/// returns the last input.
fn set_up(
    opts: &Opts,
    n: usize,
    times: &mut Vec<f64>,
    store_times: &mut Vec<f64>,
) -> io::Result<(EstDataset, SequenceStore)> {
    let t_slice = Instant::now();
    loop {
        let t0 = Instant::now();
        let ds = pace_bench::dataset(n, opts.seed);
        let mut store_s = 0.0;
        let store = timed(&mut store_s, || SequenceStore::from_ests(&ds.ests))
            .map_err(|e| io::Error::other(e.to_string()))?;
        times.push(secs(t0));
        store_times.push(store_s);
        if secs(t_slice) >= opts.sizes.setup_slice_s {
            return Ok((ds, store));
        }
    }
}

/// Clustering calls until the run's time is up, each after a slice of
/// set-ups so that `setup_s` samples the whole run.
fn untraced(
    opts: &Opts,
    out: &mut Outcome,
    cfg: &ClusterConfig,
    ds: &EstDataset,
    store: &SequenceStore,
    setup: &mut Vec<f64>,
) -> io::Result<()> {
    let n = ds.len();
    let t_start = Instant::now();
    let mut times = Vec::new();
    let mut partitions = Vec::new();
    let (mut rss_mb, mut cc) = (0.0, 0.0);
    loop {
        if !times.is_empty() {
            drop(set_up(opts, n, setup, &mut Vec::new())?);
        }
        let t0 = Instant::now();
        let result = cluster_sequential(store, cfg);
        times.push(secs(t0));
        out.check(conserved(&result), || {
            format!(
                "call {}: generated != processed + skipped + unconsumed",
                times.len()
            )
        });
        partitions.push(canonical(&result.labels));
        if times.len() == 1 {
            // High water after set-up and one call, before later set-ups
            // can add to it.
            rss_mb = peak_rss_mb();
            cc = pace_quality::assess(&result.labels, &ds.truth).cc;
        }
        if secs(t_start) >= opts.seconds {
            break;
        }
    }
    let cluster_s = median(&mut times);
    out.info("cluster_calls", times.len());
    out.info("setups", setup.len());
    out.metric("setup_s", setup_s(setup), "s");
    out.metric("cluster_s", cluster_s, "s");
    out.metric("ingest_ests_per_s", ratio(n as f64, cluster_s), "1/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("cc", cc, "ratio");

    // Correctness, after the measured section. The driver is the
    // sequential reference; its calls must agree.
    for (k, p) in partitions.iter().enumerate() {
        out.check(*p == partitions[0], || {
            format!(
                "call {}: partition differs from the sequential reference",
                k + 1
            )
        });
    }
    Ok(())
}

fn traced(
    opts: &Opts,
    out: &mut Outcome,
    cfg: &ClusterConfig,
    ds: &EstDataset,
    store: &SequenceStore,
    store_s: f64,
) -> io::Result<()> {
    let n = ds.len();
    // The untraced driver call the replay is compared with.
    let t0 = Instant::now();
    let driver = cluster_sequential(store, cfg);
    let base_s = secs(t0);
    out.check(conserved(&driver), || {
        "driver: generated != processed + skipped + unconsumed".into()
    });
    let want = canonical(&driver.labels);

    let mut replay = Replay::default();
    let mut clusters = DisjointSets::new(n);
    replay.pass(store, cfg, &mut clusters, 0, opts.sizes.kernel_pairs);
    out.check(canonical(&clusters.labels()) == want, || {
        "replay partition differs from the driver's".into()
    });
    out.check(replay.emitted == replay.processed + replay.skipped, || {
        "replay: generated != processed + skipped".into()
    });
    report_layers(out, &replay, store_s);
    report_ledger(out, replay.wall_s, replay.times.sum(), base_s);

    // The master/slave protocol, from the counters its driver publishes.
    let parallel = cluster_parallel(store, cfg, PROTOCOL_PROCS);
    out.check(conserved(&parallel), || {
        "p = 2 driver: generated != processed + skipped + unconsumed".into()
    });
    out.check(canonical(&parallel.labels) == want, || {
        "p = 2 partition differs from the sequential driver's".into()
    });
    let stats = &parallel.stats;
    out.metric("mpisim.messages", stats.messages as f64, "count");
    out.metric("cluster.pairs_skipped", stats.pairs_skipped as f64, "count");
    out.metric("cluster.master_busy_frac", stats.master_busy_frac, "frac");
    report_kernels(out, store, cfg, &replay, opts.sizes.kernel_rounds);

    // The incremental fold path on the same input, as one batch.
    let ids: Vec<String> = (0..n).map(est_id).collect();
    let mut inc = IncrementalClusterer::new(cfg.clone());
    let mut fold_s = 0.0;
    let fold = timed(&mut fold_s, || inc.fold_batch(&ids, &ds.ests))
        .map_err(|e| io::Error::other(e.to_string()))?;
    out.check(canonical(&inc.labels()) == want, || {
        "one-batch fold partition differs from the driver's".into()
    });
    out.metric("core.fold_s", fold_s, "s");
    out.metric("core.fold_pairs", inc.stats.pairs_generated as f64, "count");
    out.metric(
        "core.fold_useful_frac",
        ratio(fold.aligned as f64, inc.stats.pairs_generated as f64),
        "frac",
    );
    let dir = opts.work_dir.join("publish");
    let mut ckpt_s = 0.0;
    timed(&mut ckpt_s, || save_state(&dir.join("ckpt"), &inc, 1))
        .map_err(|e| io::Error::other(e.to_string()))?;
    out.metric("store.checkpoint_s", ckpt_s, "s");
    out.metric(
        "store.checkpoint_bytes",
        dir_bytes(&dir.join("ckpt")) as f64,
        "bytes",
    );
    let mut view_s = 0.0;
    let view = timed(&mut view_s, || build_view(&mut inc, 1));
    out.check(view.num_clusters() == driver.num_clusters, || {
        "read view cluster count differs from the driver's".into()
    });
    out.metric("serve.view_build_s", view_s, "s");

    // Query latencies against the daemon serving that state.
    let daemon = Daemon::start(&dir, cfg)?;
    let mut client = daemon.connect()?;
    let query_s = (QUERY_SHARE * opts.seconds).max(0.5);
    let t_query = Instant::now();
    let mut log = QueryLog::default();
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    load::query_loop(&mut client, n, &mut rng, &mut log, || {
        secs(t_query) >= query_s
    });
    out.tally(log.count() as u64, log.failed, "queries");
    log.report(out);
    drop(client);
    daemon.stop()
}
