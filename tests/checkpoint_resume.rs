//! End-to-end checkpoint/resume integration drills.
//!
//! These tests exercise the persistence layer the way an operator would:
//! kill the pipeline after ingest and after every clustered batch
//! (deterministic [`CrashPoint`] hooks), restart with `resume`, and
//! require the resumed run to reproduce the uninterrupted run exactly —
//! its labels, merge trace and every pair counter, with nothing booked
//! as lost — because each checkpoint is one atomically published
//! snapshot that records how far the run got.
//!
//! They also pin the out-of-core contract (a tiny memory budget changes
//! *how many* bucket batches are built one after another, not *what*
//! gets clustered) and the observability contract (io.* / ckpt.* metrics
//! are present after a budgeted, checkpointed run).

use std::path::PathBuf;

use pace::obs::Obs;
use pace::{CrashPoint, Pace, PaceConfig, PaceError, PersistConfig, SequenceStore};
use pace_simulate::{generate, SimConfig};

fn test_config() -> PaceConfig {
    let mut c = PaceConfig::small_inputs();
    c.cluster.psi = 16;
    c.cluster.overlap.min_overlap_len = 40;
    c
}

fn dataset(n: usize, seed: u64) -> pace::simulate::EstDataset {
    generate(&SimConfig {
        num_genes: (n / 12).max(2),
        num_ests: n,
        est_len_mean: 220.0,
        est_len_sd: 25.0,
        est_len_min: 120,
        exon_len: (220, 400),
        exons_per_gene: (1, 2),
        seed,
        ..SimConfig::default()
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pace-ckpt-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Canonical partition equality: zero false positives and negatives
/// under the quality assessor (labels may be permuted between drivers).
fn same_partition(a: &[usize], b: &[usize]) -> bool {
    let m = pace::quality::assess(a, b);
    m.counts.fp + m.counts.fn_ == 0
}

fn assert_conservation(s: &pace::cluster::stats::ClusterStats) {
    assert_eq!(
        s.pairs_generated,
        s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed,
        "pair-flow conservation violated: {s:?}"
    );
}

/// Kill the run after ingest and after every batch of a budgeted plan,
/// with a cluster checkpoint every batch and every third batch, resume,
/// and require the resumed run to equal the uninterrupted run under the
/// same budget: labels, merge trace, `merges` and every `pairs.*`
/// counter, with no pairs lost.
#[test]
fn crash_at_every_phase_boundary_then_resume() {
    let ds = dataset(80, 1311);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let pace = Pace::new(test_config());
    let reference = pace.cluster_store(&store).unwrap();

    let dir = tmpdir("boundary");
    let mut persist = PersistConfig::new(&dir);
    // A budget that plans a handful of batches keeps the run count
    // (two per crash point, per checkpoint interval) small.
    persist.memory_budget = 256 * 1024;
    let obs = Obs::noop();
    let whole = pace
        .cluster_store_persistent(&store, &persist, &obs)
        .unwrap();
    assert!(same_partition(whole.outcome.labels(), reference.labels()));
    assert!(whole.outcome.result.stats.merges > 0);
    let batches = obs.registry().snapshot().counters["io.spill_batches"];
    assert!(
        batches >= 5,
        "a 256K budget must plan ≥ 5 batches, got {batches}"
    );

    let crash_points = std::iter::once(CrashPoint::AfterIngest)
        .chain((1..=batches).map(CrashPoint::AfterClusterBatch));
    for every in [1, 3] {
        for point in crash_points.clone() {
            let what = format!("crash {point}, checkpoint every {every}");
            persist.checkpoint_every = every;
            persist.crash_after = Some(point);
            persist.resume = false;
            let err = pace
                .cluster_store_persistent(&store, &persist, &Obs::noop())
                .expect_err("injected crash must abort the run");
            assert!(
                matches!(err, PaceError::InjectedCrash(_)),
                "{what}: surfaced as {err:?}"
            );

            persist.crash_after = None;
            persist.resume = true;
            let resumed = pace
                .cluster_store_persistent(&store, &persist, &Obs::noop())
                .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
            assert!(resumed.resumed, "{what}: resume did not restore state");
            assert_eq!(
                resumed.outcome.labels(),
                whole.outcome.labels(),
                "{what}: labels"
            );
            assert_eq!(
                resumed.outcome.trace, whole.outcome.trace,
                "{what}: merge trace"
            );
            let stats = &resumed.outcome.result.stats;
            assert_eq!(stats, &whole.outcome.result.stats, "{what}: counters");
            assert_eq!(stats.faults.lost_pairs, 0, "{what}: lost pairs");
            assert_conservation(stats);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Memory budgets change how many bucket batches are built and drained
/// in turn, never the clustering itself.
#[test]
fn any_budget_yields_the_in_memory_partition() {
    let ds = dataset(80, 4177);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let pace = Pace::new(test_config());
    let reference = pace.cluster_store(&store).unwrap();

    for (i, budget) in [0u64, 64 * 1024, 8 * 1024].into_iter().enumerate() {
        let dir = tmpdir(&format!("budget-{i}"));
        let mut persist = PersistConfig::new(&dir);
        persist.memory_budget = budget;
        let out = pace
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap();
        assert!(
            same_partition(out.outcome.labels(), reference.labels()),
            "budget {budget} changed the partition"
        );
        assert_conservation(&out.outcome.result.stats);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A budgeted, checkpointed run surfaces the io.* / ckpt.* metrics the
/// bench gate and the CI artifact rely on.
#[test]
fn budgeted_run_reports_io_and_ckpt_metrics() {
    let ds = dataset(60, 90210);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let pace = Pace::new(test_config());

    let dir = tmpdir("metrics");
    let mut persist = PersistConfig::new(&dir);
    persist.memory_budget = 16 * 1024;
    let obs = Obs::noop();
    pace.cluster_store_persistent(&store, &persist, &obs)
        .unwrap();

    let snap = obs.registry().snapshot();
    for key in ["io.spill_batches", "ckpt.writes", "ckpt.bytes"] {
        let v = snap.counters.get(key).copied();
        assert!(
            v.is_some_and(|v| v > 0),
            "counter {key} missing or zero after budgeted run: {v:?}"
        );
    }
    // Each planned batch is built exactly once in an uninterrupted run.
    let batches = snap.counters["io.spill_batches"];
    assert!(batches > 1, "a 16K budget must force batching");
    assert_eq!(
        snap.phases["gst_construction"].count, batches,
        "batches built ≠ batches planned"
    );
    assert!(
        snap.gauges
            .get("io.peak_batch_bytes")
            .copied()
            .unwrap_or(0.0)
            > 0.0,
        "peak batch gauge missing"
    );
    std::fs::remove_dir_all(&dir).ok();
}
