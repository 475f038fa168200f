//! Differential-testing harness for the sharded clustering masters.
//!
//! Every test runs the same error-free dataset twice: once through the
//! single-master driver (the reference, always on the in-process
//! channel backend) and once through the sharded driver with `K`
//! sub-masters. The sharded run must be *observationally identical*:
//!
//! 1. same canonical partition (relabeled by first occurrence),
//! 2. a merge trace whose replay reproduces that partition exactly
//!    (`trace.len() == stats.merges`, replay labels == returned labels),
//! 3. exact pair-flow conservation, globally
//!    (`generated == processed + skipped + unconsumed`, zero lost
//!    pairs) *and* per shard via the `shard.<k>.*` gauges,
//! 4. no fault-recovery activity on a fault-free run.
//!
//! The pinned `k{K}_seed_*` tests are the CI sharded-matrix entries
//! (see `.github/workflows/ci.yml`): K ∈ {1, 2, 4, 8} sub-masters,
//! selected by test-name prefix (`k1_`, `k4_`, ...).
//!
//! **Transport dispatch:** with `PACE_TRANSPORT=uds` in the
//! environment the sharded run under test goes over the Unix-socket
//! multi-process backend — the reconciler runs in the test process and
//! every sub-master and slave rank is a real `pace __pace-worker`
//! child — while the reference stays on the channel backend. The
//! assertions are identical, so the matrix proves the sharded topology
//! behaves the same across both backends. Set `PACE_TEST_TRACE_DIR` to
//! collect per-process trace timelines on failure.

use pace::obs::{metric, Obs};
use pace::{Pace, PaceConfig, SequenceStore, SimConfig};
use std::sync::mpsc;
use std::time::Duration;

/// Whether the run under test should use the Unix-socket multi-process
/// backend instead of the in-process channel world.
fn transport_uds() -> bool {
    std::env::var("PACE_TRANSPORT")
        .map(|v| v == "uds")
        .unwrap_or(false)
}

/// Pinned seeds of the CI sharded matrix. Keep in sync with the
/// `sharded-matrix` job in `.github/workflows/ci.yml`.
const MATRIX_SEEDS: [u64; 2] = [11, 47];

/// Slave count shared by reference and sharded runs: the reference
/// runs `1 + SLAVES` ranks, the sharded run `1 + K + SLAVES`, so both
/// sides partition pair generation over the same number of workers.
const SLAVES: usize = 3;

/// Error-free workload with enough genes that every shard owns a
/// non-trivial id range and cross-shard merges actually occur.
fn dataset(n: usize, seed: u64) -> SequenceStore {
    let ds = pace::simulate::generate(
        &SimConfig {
            num_genes: (n / 24).max(2),
            num_ests: n,
            est_len_mean: 220.0,
            est_len_sd: 25.0,
            est_len_min: 120,
            exon_len: (240, 420),
            exons_per_gene: (1, 2),
            seed,
            ..SimConfig::default()
        }
        .error_free(),
    );
    SequenceStore::from_ests(&ds.ests).unwrap()
}

/// Pipeline config for `p` ranks with `shards` sub-masters
/// (`shards == 0` selects the single-master driver). The small epoch
/// forces several cross-merge flushes per shard even on tiny inputs.
fn cfg(p: usize, shards: usize) -> PaceConfig {
    let mut c = PaceConfig::small_inputs();
    c.cluster.psi = 16;
    c.cluster.overlap.min_overlap_len = 40;
    c.cluster.batchsize = 8;
    c.cluster.shards = shards;
    c.cluster.shard_epoch = 4;
    c.num_processors = p;
    c
}

struct Run {
    labels: Vec<usize>,
    stats: pace::cluster::ClusterStats,
    trace: pace::cluster::MergeTrace,
    counters: std::collections::BTreeMap<String, u64>,
    gauges: std::collections::BTreeMap<String, f64>,
}

fn run_channel(store: &SequenceStore, config: PaceConfig) -> Run {
    let obs = Obs::noop();
    let outcome = Pace::new(config).cluster_store_obs(store, &obs).unwrap();
    let snap = obs.registry().snapshot();
    Run {
        labels: outcome.result.labels.clone(),
        stats: outcome.result.stats,
        trace: outcome.trace,
        counters: snap.counters,
        gauges: snap.gauges,
    }
}

/// One sharded run over the socket backend: this process is the
/// reconciler + hub, every other rank (sub-masters included) is a
/// spawned `pace __pace-worker` process.
fn run_uds(store: &SequenceStore, config: PaceConfig, tag: &str) -> Run {
    let trace_dir = std::env::var_os("PACE_TEST_TRACE_DIR").map(std::path::PathBuf::from);
    let obs = if trace_dir.is_some() {
        Obs::with_tracer()
    } else {
        Obs::noop()
    };
    let mut opts = pace::UdsLaunchOpts::new(env!("CARGO_BIN_EXE_pace"));
    if let Some(dir) = &trace_dir {
        let _ = std::fs::create_dir_all(dir);
        opts.trace_out = Some(dir.join(format!("{tag}.json")));
    }
    let outcome = pace::cluster_store_uds(store, &config, &opts, &obs)
        .unwrap_or_else(|e| panic!("{tag}: uds launch failed: {e}"));
    if let (Some(dir), Some(tracer)) = (&trace_dir, obs.tracer()) {
        let _ = tracer.write_chrome_file(&dir.join(format!("{tag}.json.rank0.json")));
    }
    let snap = obs.registry().snapshot();
    Run {
        labels: outcome.result.labels.clone(),
        stats: outcome.result.stats,
        trace: outcome.trace,
        counters: snap.counters,
        gauges: snap.gauges,
    }
}

/// The sharded run *under test*: channel by default, socket processes
/// when `PACE_TRANSPORT=uds`. References always go through
/// [`run_channel`].
fn run_under_test(store: &SequenceStore, config: PaceConfig, tag: &str) -> Run {
    if transport_uds() {
        run_uds(store, config, tag)
    } else {
        run_channel(store, config)
    }
}

/// Run on a watchdog thread: a deadlocked reconciliation protocol must
/// fail the test, not hang the suite.
fn watched(f: impl FnOnce() -> Run + Send + 'static) -> Run {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("sharded run deadlocked: no result within watchdog timeout");
    handle.join().expect("runner thread panicked");
    out
}

fn run_watched(store: &SequenceStore, config: PaceConfig, tag: &str) -> Run {
    let store = store.clone();
    let tag = tag.to_string();
    watched(move || run_under_test(&store, config, &tag))
}

/// Relabel a partition by first occurrence so two labelings compare
/// equal iff they induce the same partition.
fn canon(labels: &[usize]) -> Vec<usize> {
    let mut next = 0usize;
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            *map.entry(l).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect()
}

/// `generated == processed + skipped + unconsumed` with zero lost
/// pairs — nothing silently vanished between slaves, sub-masters, and
/// the reconciler.
fn assert_flow_conserved(r: &Run, what: &str) {
    assert_eq!(r.stats.faults.lost_pairs, 0, "{what}: pairs lost in flight");
    assert_eq!(
        r.stats.pairs_generated,
        r.stats.pairs_processed + r.stats.pairs_skipped + r.stats.pairs_unconsumed,
        "{what}: pair-flow conservation violated"
    );
    assert_eq!(
        r.counters
            .get(metric::ALIGN_WS_REUSES)
            .copied()
            .unwrap_or(0),
        r.stats.pairs_processed,
        "{what}: some pair was aligned twice (or a result was double-counted)"
    );
}

/// Per-shard flow conservation, read back from the `shard.<k>.*`
/// gauges the fold publishes: each shard's slave-side generated count
/// must equal what it processed + skipped + left unconsumed, and the
/// shard totals must sum to the global counters.
fn assert_per_shard_conservation(r: &Run, k: usize, what: &str) {
    let g = |m: usize, field: &str| -> u64 {
        r.gauges
            .get(&metric::shard_gauge_name(m, field))
            .copied()
            .unwrap_or_else(|| {
                panic!(
                    "{what}: missing gauge {}",
                    metric::shard_gauge_name(m, field)
                )
            }) as u64
    };
    let mut sum_gen = 0u64;
    let mut sum_merges = 0u64;
    for m in 0..k {
        let (gen, proc_, skip, uncons) = (
            g(m, "generated"),
            g(m, "processed"),
            g(m, "skipped"),
            g(m, "unconsumed"),
        );
        assert_eq!(
            gen,
            proc_ + skip + uncons,
            "{what}: shard {m} leaked pairs (generated {gen} != processed {proc_} + skipped {skip} + unconsumed {uncons})"
        );
        // Master-side received undercounts generated (slaves self-align
        // the startup portions), but can never exceed what was handled.
        assert!(
            g(m, "received") <= proc_ + skip,
            "{what}: shard {m} received more pairs than it handled"
        );
        sum_gen += gen;
        sum_merges += g(m, "merges");
    }
    assert_eq!(
        sum_gen, r.stats.pairs_generated,
        "{what}: shard generated gauges don't sum to the global counter"
    );
    // Shard-local merges can exceed the reconciled total only through
    // cross-shard edges collapsing; never the other way around.
    assert!(
        sum_merges >= r.stats.merges,
        "{what}: reconciled more merges than the shards reported"
    );
    assert_eq!(
        r.gauges
            .get(metric::SHARD_COUNT)
            .copied()
            .unwrap_or_default() as usize,
        k,
        "{what}: shard.count gauge wrong"
    );
}

/// The full differential check for one `(K, seed)` cell.
fn check_identity(k: usize, seed: u64) {
    let store = dataset(72, 5000 + seed);
    let n = store.num_ests();
    let what = format!("k {k} seed {seed}");

    // Reference: single master, channel backend, matched slave count.
    let single = run_channel(&store, cfg(1 + SLAVES, 0));
    assert_flow_conserved(&single, "single-master reference");
    assert_eq!(
        canon(&single.trace.replay(n)),
        canon(&single.labels),
        "reference trace does not replay its own labels"
    );

    // Under test: K sub-masters + reconciler, same slave count.
    let sharded = run_watched(
        &store,
        cfg(1 + k + SLAVES, k),
        &format!("sharded_k{k}_seed_{seed}"),
    );

    // 1. Canonical partition identity.
    assert_eq!(
        canon(&sharded.labels),
        canon(&single.labels),
        "{what}: sharded partition differs from single-master"
    );
    let clusters = |labels: &[usize]| {
        labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
    };
    assert_eq!(
        clusters(&sharded.labels),
        clusters(&single.labels),
        "{what}: cluster counts differ"
    );

    // 2. Merge-trace replay identity: the reconciled trace is exactly
    // the accepted merges, and replaying it reproduces the labels.
    assert_eq!(
        sharded.trace.len() as u64,
        sharded.stats.merges,
        "{what}: trace length != merge count"
    );
    assert_eq!(
        canon(&sharded.trace.replay(n)),
        canon(&sharded.labels),
        "{what}: sharded trace does not replay the returned labels"
    );
    assert_eq!(
        canon(&sharded.trace.replay(n)),
        canon(&single.labels),
        "{what}: sharded trace replays a different partition than the reference"
    );

    // 3. Conservation, global and per shard.
    assert_flow_conserved(&sharded, &what);
    assert_per_shard_conservation(&sharded, k, &what);

    // 4. Fault-free means zero recovery activity.
    assert_eq!(
        sharded.stats.faults,
        Default::default(),
        "{what}: fault counters moved on a fault-free run"
    );
    assert_eq!(
        sharded
            .gauges
            .get(metric::SHARD_FAILED)
            .copied()
            .unwrap_or_default(),
        0.0,
        "{what}: a shard was written off on a fault-free run"
    );
    if transport_uds() {
        assert!(
            sharded
                .counters
                .get(metric::COMM_BYTES)
                .copied()
                .unwrap_or(0)
                > 0,
            "{what}: socket backend reported no wire bytes"
        );
    }
}

#[test]
fn k1_seed_0() {
    check_identity(1, MATRIX_SEEDS[0]);
}
#[test]
fn k1_seed_1() {
    check_identity(1, MATRIX_SEEDS[1]);
}
#[test]
fn k2_seed_0() {
    check_identity(2, MATRIX_SEEDS[0]);
}
#[test]
fn k2_seed_1() {
    check_identity(2, MATRIX_SEEDS[1]);
}
#[test]
fn k4_seed_0() {
    check_identity(4, MATRIX_SEEDS[0]);
}
#[test]
fn k4_seed_1() {
    check_identity(4, MATRIX_SEEDS[1]);
}
#[test]
fn k8_seed_0() {
    check_identity(8, MATRIX_SEEDS[0]);
}
#[test]
fn k8_seed_1() {
    check_identity(8, MATRIX_SEEDS[1]);
}

/// A sharded run with too few ranks must be rejected up front with a
/// clear configuration error, not deadlock or silently degrade.
#[test]
fn rejects_too_few_procs() {
    let store = dataset(24, 9);
    for (p, k) in [(3, 4), (1, 4)] {
        let err = Pace::new(cfg(p, k))
            .cluster_store_obs(&store, &Obs::noop())
            .unwrap_err();
        match err {
            pace::PaceError::BadConfig(msg) => {
                assert!(msg.contains("shards"), "unhelpful error: {msg}")
            }
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }
}
