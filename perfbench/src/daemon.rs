//! `daemon_ingest`: writes beside reads on one live index.
//!
//! The run is a sequence of identical cycles, so every commit folds the
//! same index sizes. A cycle's set-up generates the input, starts
//! `pace-serve` in-process on a scratch Unix socket, checkpointing every
//! fold, and preloads library ESTs in one ingest. Its measured part
//! ingests a fixed number of fixed-size batches on one writer connection;
//! after each fold, one reader connection queries the new snapshot in a
//! closed loop for a fixed slice. Cycles repeat while another one fits in
//! the run.
//! The traced run does one cycle, replays `fold_batch` → `save_state` →
//! `ReadView::build` on its batches (the order `do_ingest` uses), then
//! replays the folds once more from the layers' public calls to split
//! fold time by layer.

use crate::load::{self, build_view, dir_bytes, Daemon, QueryLog};
use crate::replay::{report_kernels, report_layers, report_ledger, Replay};
use crate::{canonical, est_id, median, peak_rss_mb, ratio, secs, setup_s, timed, Opts, Outcome};
use pace_cluster::{cluster_sequential, ClusterConfig};
use pace_core::IncrementalClusterer;
use pace_dsu::DisjointSets;
use pace_seq::SequenceStore;
use pace_serve::{save_state, Client};
use pace_simulate::EstDataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io;
use std::ops::Range;
use std::time::Instant;

/// Seconds the reader queries after each fold. Reader and writer take
/// turns: a reader running beside the fold made runs on two CPUs flip
/// between two placements 40% apart, and on one CPU made the tail latency
/// follow the fold's scheduler slices.
const QUERY_SLICE_S: f64 = 0.3;

fn ids(range: Range<usize>) -> Vec<String> {
    range.map(est_id).collect()
}

/// The batches a cycle ingests after its preload.
fn batches(opts: &Opts) -> Vec<Range<usize>> {
    let s = opts.sizes;
    (0..s.cycle_batches)
        .map(|b| {
            let lo = s.preload_ests + b * s.batch_ests;
            lo..lo + s.batch_ests
        })
        .collect()
}

pub fn run(opts: &Opts, out: &mut Outcome) -> io::Result<()> {
    let s = opts.sizes;
    let cfg = pace_bench::paper_cfg();
    let n = s.preload_ests + s.batch_ests * s.cycle_batches;
    let mut setup = Vec::new();
    let mut ingest_s = Vec::new();
    let mut queries = QueryLog::default();
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut served = Vec::new();
    let mut rss_mb = 0.0;
    let t_start = Instant::now();
    let ds = loop {
        let t_cycle = Instant::now();
        let (ds, daemon, mut writer) = set_up(opts, &cfg, &mut setup, out)?;
        let mut reader = daemon.connect()?;
        for (b, range) in batches(opts).into_iter().enumerate() {
            let t0 = Instant::now();
            let r = writer.ingest(ids(range.clone()), ds.ests[range.clone()].to_vec());
            ingest_s.push(secs(t0));
            out.check(matches!(r, Ok((t, _)) if t == range.end as u64), || {
                format!("ingest of batch {b} failed: {r:?}")
            });
            let t_query = Instant::now();
            load::query_loop(&mut reader, range.end, &mut rng, &mut queries, || {
                secs(t_query) >= QUERY_SLICE_S
            });
        }
        if served.is_empty() {
            // High water of the first cycle, before later cycles' daemon
            // threads can add allocator arenas of their own.
            rss_mb = peak_rss_mb();
        }
        // Correctness, outside the measured parts: what the daemon serves.
        served.push(load::daemon_labels(&mut reader, n));
        let stats = reader.stats();
        out.check(
            matches!(&stats, Ok(st) if st.num_ests == n as u64
                && st.pairs_generated == st.pairs_processed + st.pairs_skipped),
            || format!("daemon stats after ingest: {stats:?}"),
        );
        drop((reader, writer));
        daemon.stop()?;
        if opts.trace || secs(t_start) + secs(t_cycle) > opts.seconds {
            break ds;
        }
    };
    out.info("input_ests", ds.len());
    out.info("input_bases", ds.total_bases());
    out.info("preload_ests", s.preload_ests);
    out.info("batch_ests", s.batch_ests);
    out.info("cycles", served.len());
    out.info("ingested_batches", ingest_s.len());

    // Every cycle's daemon serves the one-shot batch partition of the
    // same ESTs in the same order.
    let store =
        SequenceStore::from_ests(&ds.ests[..n]).map_err(|e| io::Error::other(e.to_string()))?;
    let one_shot = canonical(&cluster_sequential(&store, &cfg).labels);
    for (k, labels) in served.iter().enumerate() {
        out.check(
            labels.as_ref().map(|l| canonical(l)) == Some(one_shot.clone()),
            || format!("cycle {k}: daemon partition differs from a one-shot batch run"),
        );
    }

    out.tally(queries.count() as u64, queries.failed, "queries");
    if opts.trace {
        queries.report(out);
        traced(opts, out, &cfg, &ds, &ingest_s, &one_shot)
    } else {
        out.metric("setup_s", setup_s(&setup), "s");
        out.metric("cluster_s", median(&mut ingest_s.clone()), "s");
        let ingested = s.batch_ests * ingest_s.len();
        out.metric(
            "ingest_ests_per_s",
            ratio(ingested as f64, ingest_s.iter().sum()),
            "1/s",
        );
        out.metric("peak_rss_mb", rss_mb, "MB");
        let labels = served[0].clone().unwrap_or_default();
        let cc = pace_quality::assess(&labels, &ds.truth[..labels.len()]).cc;
        out.metric("cc", cc, "ratio");
        Ok(())
    }
}

/// A cycle's set-up: generate the input, start a fresh daemon in the
/// work directory and preload it, adding the time taken to `times`.
fn set_up(
    opts: &Opts,
    cfg: &ClusterConfig,
    times: &mut Vec<f64>,
    out: &mut Outcome,
) -> io::Result<(EstDataset, Daemon, Client)> {
    let s = opts.sizes;
    let dir = opts.work_dir.join("daemon");
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let ds = pace_bench::dataset(s.preload_ests + s.batch_ests * s.cycle_batches, opts.seed);
    let daemon = Daemon::start(&dir, cfg)?;
    let mut writer = daemon.connect()?;
    let r = writer.ingest(ids(0..s.preload_ests), ds.ests[..s.preload_ests].to_vec());
    times.push(secs(t0));
    out.check(
        matches!(r, Ok((t, _)) if t == s.preload_ests as u64),
        || format!("preload ingest failed: {r:?}"),
    );
    Ok((ds, daemon, writer))
}

fn traced(
    opts: &Opts,
    out: &mut Outcome,
    cfg: &ClusterConfig,
    ds: &EstDataset,
    ingest_s: &[f64],
    want: &[usize],
) -> io::Result<()> {
    let s = opts.sizes;
    let preload = s.preload_ests;
    let batches = batches(opts);
    let fold_err = |e: pace_seq::SeqError| io::Error::other(e.to_string());
    // Both replays must end in `want`, the one-shot partition of what
    // they fold.

    // Ordered replay: fold → checkpoint → read view, per batch.
    let dir = opts.work_dir.join("replay");
    let mut inc = IncrementalClusterer::new(cfg.clone());
    inc.fold_batch(&ids(0..preload), &ds.ests[..preload])
        .map_err(fold_err)?;
    let (mut fold_s, mut ckpt_s, mut view_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fold_pairs, mut fold_aligned, mut fold_skipped) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for (b, range) in batches.iter().enumerate() {
        let (generated, skipped) = (inc.stats.pairs_generated, inc.stats.pairs_skipped);
        let (mut f, mut c, mut v) = (0.0, 0.0, 0.0);
        let fold = timed(&mut f, || {
            inc.fold_batch(&ids(range.clone()), &ds.ests[range.clone()])
        })
        .map_err(fold_err)?;
        timed(&mut c, || save_state(&dir, &inc, b as u64 + 2))
            .map_err(|e| io::Error::other(e.to_string()))?;
        let view = timed(&mut v, || build_view(&mut inc, b as u64 + 2));
        out.check(view.num_ests() == range.end, || {
            format!(
                "replayed view after batch {b} holds {} ESTs",
                view.num_ests()
            )
        });
        fold_pairs += inc.stats.pairs_generated - generated;
        fold_skipped += inc.stats.pairs_skipped - skipped;
        fold_aligned += fold.aligned;
        fold_s.push(f);
        ckpt_s.push(c);
        view_s.push(v);
    }
    let wall = secs(t0);
    let attributed: f64 = fold_s.iter().chain(&ckpt_s).chain(&view_s).sum();
    out.check(canonical(&inc.labels()) == want, || {
        "replayed folds end in another partition than the daemon's".into()
    });
    let folds = batches.len().max(1) as f64;
    out.metric("core.fold_s", median(&mut fold_s), "s");
    out.metric("core.fold_pairs", fold_pairs as f64 / folds, "count");
    out.metric(
        "core.fold_useful_frac",
        ratio(fold_aligned as f64, fold_pairs as f64),
        "frac",
    );
    out.metric("store.checkpoint_s", median(&mut ckpt_s), "s");
    out.metric("store.checkpoint_bytes", dir_bytes(&dir) as f64, "bytes");
    out.metric("serve.view_build_s", median(&mut view_s), "s");
    out.metric("cluster.pairs_skipped", fold_skipped as f64, "count");
    report_ledger(out, wall, attributed, ingest_s.iter().sum());

    // Layer replay: the same folds from the layers' public calls.
    let mut warm = Replay::default();
    let mut clusters = DisjointSets::new(preload);
    let store = SequenceStore::from_ests(&ds.ests[..preload]).map_err(fold_err)?;
    warm.pass(&store, cfg, &mut clusters, 0, 0);
    let mut replay = Replay::default();
    let mut store = store;
    for range in &batches {
        let t0 = Instant::now();
        store = timed(&mut replay.times.store_s, || {
            SequenceStore::from_ests(&ds.ests[..range.end])
        })
        .map_err(fold_err)?;
        let old = std::mem::replace(&mut clusters, DisjointSets::new(range.end));
        timed(&mut replay.times.union_s, || {
            grow(old, &mut clusters, range.start)
        });
        replay.wall_s += secs(t0);
        replay.pass(&store, cfg, &mut clusters, range.start, s.kernel_pairs);
    }
    out.check(canonical(&clusters.labels()) == want, || {
        "layer replay ends in another partition than the daemon's".into()
    });
    out.check(replay.processed == fold_aligned, || {
        "layer replay aligned another number of pairs than the folds".into()
    });
    let store_s = replay.times.store_s;
    report_layers(out, &replay, store_s);
    out.metric("mpisim.messages", 0.0, "count");
    out.metric("cluster.master_busy_frac", 0.0, "frac");
    report_kernels(out, &store, cfg, &replay, s.kernel_rounds);
    Ok(())
}

/// Carry the old partition into a grown union–find, as the fold does.
fn grow(mut old: DisjointSets, grown: &mut DisjointSets, old_len: usize) {
    for i in 0..old_len {
        let root = old.find(i);
        grown.union(i, root);
    }
}
