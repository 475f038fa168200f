//! Deterministic fault-injection harness for the clustering protocol.
//!
//! Every test runs the full parallel pipeline twice on the same
//! error-free dataset: once fault-free, once under a seeded
//! [`FaultPlan`] — message drops, delivery delays (reordering), or a
//! slave crash plus a slow rank. The recovery machinery (per-slave
//! deadlines, same-sequence resends, cached duplicate replies, dead
//! slave reassignment) must make the faulted run terminate with the
//! *same partition* while the `faults.*` counters record what happened.
//!
//! The deterministic `{lossless,drop,delay,crash}_seed_*` tests are the
//! CI transport-matrix entries (see `.github/workflows/ci.yml`): four
//! fixed seeds per profile, selected by test-name prefix. The proptest
//! block at the bottom widens the seed space for drop/delay plans.
//!
//! **Transport dispatch:** with `PACE_TRANSPORT=uds` in the
//! environment, every run *under test* goes over the Unix-socket
//! multi-process backend — the master runs in the test process and each
//! slave is a real `pace __pace-worker` child process — while the
//! fault-free reference stays on the in-process channel backend. The
//! assertions are identical, so the matrix proves partition identity
//! across both backends under every fault profile. Set
//! `PACE_TEST_TRACE_DIR` to collect per-process trace timelines (CI
//! uploads them when a matrix entry fails).

use pace::obs::{metric, Obs};
use pace::{FaultPlan, FaultProfile, Pace, PaceConfig, SequenceStore, SimConfig};
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

/// Whether the run under test should use the Unix-socket multi-process
/// backend instead of the in-process channel world.
fn transport_uds() -> bool {
    std::env::var("PACE_TRANSPORT")
        .map(|v| v == "uds")
        .unwrap_or(false)
}

/// The fixed seeds of the CI fault matrix. Keep in sync with the
/// `fault-matrix` job in `.github/workflows/ci.yml`.
const MATRIX_SEEDS: [u64; 4] = [11, 23, 47, 91];

/// Error-free, high-coverage workload: ~n/4 ESTs per gene with long
/// exons guarantees each gene's overlap graph is dense, so the correct
/// partition survives losing one slave's un-generated pairs.
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

/// Pipeline config for `p` ranks. Timeouts are tuned per profile by the
/// callers: recoverable-fault runs use a short deadline with a deep
/// retry budget (fast resends, no false deaths); crash runs use a
/// moderate deadline with a shallow budget (fast death detection).
fn cfg(p: usize) -> PaceConfig {
    let mut c = PaceConfig::small_inputs();
    c.cluster.psi = 16;
    c.cluster.overlap.min_overlap_len = 40;
    c.num_processors = p;
    c
}

struct Run {
    labels: Vec<usize>,
    stats: pace::cluster::ClusterStats,
    counters: std::collections::BTreeMap<String, u64>,
}

fn run(store: &SequenceStore, config: PaceConfig) -> Run {
    let obs = Obs::noop();
    let outcome = Pace::new(config).cluster_store_obs(store, &obs).unwrap();
    Run {
        labels: outcome.result.labels.clone(),
        stats: outcome.result.stats,
        counters: obs.registry().snapshot().counters,
    }
}

/// One run over the socket backend: this process is the master + hub,
/// each slave rank is a spawned `pace __pace-worker` process. When
/// `PACE_TEST_TRACE_DIR` is set, every rank's Chrome trace lands there
/// under `{tag}.*` for post-mortem stitching with `pace-trace`.
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
    Run {
        labels: outcome.result.labels.clone(),
        stats: outcome.result.stats,
        counters: obs.registry().snapshot().counters,
    }
}

/// The run *under test*: channel by default, socket processes when
/// `PACE_TRANSPORT=uds`. References always go through [`run`].
fn run_under_test(store: &SequenceStore, config: PaceConfig, tag: &str) -> Run {
    if transport_uds() {
        run_uds(store, config, tag)
    } else {
        run(store, config)
    }
}

/// Run on a watchdog thread: a deadlocked protocol must fail the test,
/// not hang the suite. Crash schedules exercise exactly the paths where
/// a bug would deadlock (a dead rank can never answer).
fn watched(f: impl FnOnce() -> Run + Send + 'static) -> Run {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("faulted run deadlocked: no result within watchdog timeout");
    handle.join().expect("runner thread panicked");
    out
}

fn run_watched(store: &SequenceStore, config: PaceConfig, tag: &str) -> Run {
    let store = store.clone();
    let tag = tag.to_string();
    watched(move || run_under_test(&store, config, &tag))
}

fn assert_same_partition(faulted: &Run, clean: &Run, what: &str) {
    let agreement = pace::quality::assess(&faulted.labels, &clean.labels);
    assert_eq!(
        agreement.counts.fp + agreement.counts.fn_,
        0,
        "{what}: faulted partition diverges from fault-free: {agreement}"
    );
}

/// `generated == processed + skipped + unconsumed` with zero
/// conservation defect — nothing was silently lost.
fn assert_nothing_lost(r: &Run, what: &str) {
    assert_eq!(r.stats.faults.lost_pairs, 0, "{what}: pairs lost in flight");
    assert_eq!(
        r.stats.pairs_generated,
        r.stats.pairs_processed + r.stats.pairs_skipped + r.stats.pairs_unconsumed,
        "{what}: pair-flow conservation violated"
    );
    // Idempotency: every processed pair went through an alignment
    // workspace exactly once — duplicates were answered from cache.
    assert_eq!(
        r.counters
            .get(metric::ALIGN_WS_REUSES)
            .copied()
            .unwrap_or(0),
        r.stats.pairs_processed,
        "{what}: some pair was aligned twice (or a result was double-counted)"
    );
}

fn check_recoverable(profile: FaultProfile, seed: u64) {
    let p = 4;
    let store = dataset(72, 1000 + seed);
    let clean = run(&store, cfg(p));
    assert_nothing_lost(&clean, "fault-free baseline");
    assert_eq!(
        clean.stats.faults,
        Default::default(),
        "clean run counted faults"
    );

    let mut faulted_cfg = cfg(p);
    faulted_cfg.faults = FaultPlan::seeded(profile, seed, p);
    // Short deadline + deep retry budget: resends fire quickly, and a
    // live-but-slow slave can miss many deadlines without being
    // declared dead (duplicates are idempotent either way).
    faulted_cfg.cluster.slave_timeout = 0.05;
    faulted_cfg.cluster.max_retries = 200;
    let what = format!("{profile} seed {seed}");
    let faulted = run_watched(&store, faulted_cfg, &format!("{profile}_seed_{seed}"));

    assert_same_partition(&faulted, &clean, &what);
    assert_nothing_lost(&faulted, &what);
    assert_eq!(faulted.stats.faults.dead_slaves, 0, "{what}: false death");
    let injected_key = match profile {
        FaultProfile::Drop => metric::FAULTS_INJECTED_DROPS,
        FaultProfile::Delay => metric::FAULTS_INJECTED_DELAYS,
        _ => unreachable!("recoverable profiles only"),
    };
    assert!(
        faulted.counters.get(injected_key).copied().unwrap_or(0) > 0,
        "{what}: seeded plan injected nothing"
    );
    // No assertion on `faults.retries`: drops recover either by
    // timeout+resend (retries > 0) or, when a seeded seq lands on a
    // redundant end-phase copy (Shutdown, Summary), by redundancy with
    // zero retries — which of the two a given seed hits depends on how
    // many protocol rounds the schedule produced. The invariants above
    // (drops fired, partition identical, nothing lost) are the
    // schedule-independent contract.
}

/// Crash runs lose the dead slave's never-generated pairs for good, so
/// they need extreme redundancy: two genes, ~48 near-identical ESTs
/// each — every gene's overlap graph stays connected on any two-thirds
/// subset of its pairs.
fn crash_dataset(n: usize, seed: u64) -> SequenceStore {
    let ds = pace::simulate::generate(
        &SimConfig {
            num_genes: 2,
            num_ests: n,
            est_len_mean: 260.0,
            est_len_sd: 20.0,
            est_len_min: 160,
            exon_len: (280, 420),
            exons_per_gene: (1, 1),
            seed,
            ..SimConfig::default()
        }
        .error_free(),
    );
    SequenceStore::from_ests(&ds.ests).unwrap()
}

fn check_crash(seed: u64) {
    let p = 4;
    let store = crash_dataset(96, 2000 + seed);
    let clean = run(&store, cfg(p));

    let mut faulted_cfg = cfg(p);
    faulted_cfg.faults = FaultPlan::seeded(FaultProfile::Crash, seed, p);
    // Moderate deadline, shallow budget: a real crash is declared dead
    // in ~1s, while 250ms is far beyond any honest batch turnaround.
    faulted_cfg.cluster.slave_timeout = 0.25;
    faulted_cfg.cluster.max_retries = 3;
    let faulted = run_watched(&store, faulted_cfg, &format!("crash_seed_{seed}"));

    let what = format!("crash seed {seed}");
    assert!(
        faulted
            .counters
            .get(metric::FAULTS_INJECTED_CRASHES)
            .copied()
            .unwrap_or(0)
            > 0,
        "{what}: no crash injected"
    );
    assert!(
        faulted.stats.faults.dead_slaves >= 1,
        "{what}: crash undetected"
    );
    assert!(
        faulted.stats.faults.retries > 0,
        "{what}: death without retries"
    );
    // Flow conservation stays exact even with a dead rank: whatever the
    // crashed slave held is accounted as unconsumed/lost, not dropped
    // from the books.
    assert_eq!(
        faulted.stats.pairs_generated,
        faulted.stats.pairs_processed
            + faulted.stats.pairs_skipped
            + faulted.stats.pairs_unconsumed,
        "{what}: pair-flow conservation violated"
    );
    // On this high-redundancy dataset the survivors' pairs keep every
    // gene's overlap graph connected, so the partition still matches
    // the fault-free run (seed choices verified empirically).
    assert_same_partition(&faulted, &clean, &what);
}

/// The lossless matrix column: no faults at all, but the run under
/// test still goes over whatever backend `PACE_TRANSPORT` selects.
/// Proves backend swaps are invisible before any fault is in play —
/// same partition as the channel reference, exact flow conservation,
/// zero recovery activity, and (over sockets) real bytes on the wire.
fn check_lossless(seed: u64) {
    let p = 4;
    let store = dataset(72, 3000 + seed);
    let clean = run(&store, cfg(p));
    assert_nothing_lost(&clean, "lossless reference");

    let what = format!("lossless seed {seed}");
    let tested = run_watched(&store, cfg(p), &format!("lossless_seed_{seed}"));
    assert_same_partition(&tested, &clean, &what);
    assert_nothing_lost(&tested, &what);
    assert_eq!(
        tested.stats.faults,
        Default::default(),
        "{what}: fault counters moved on a fault-free run"
    );
    if transport_uds() {
        assert!(
            tested
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
fn lossless_seed_0() {
    check_lossless(MATRIX_SEEDS[0]);
}
#[test]
fn lossless_seed_1() {
    check_lossless(MATRIX_SEEDS[1]);
}
#[test]
fn lossless_seed_2() {
    check_lossless(MATRIX_SEEDS[2]);
}
#[test]
fn lossless_seed_3() {
    check_lossless(MATRIX_SEEDS[3]);
}

/// Both transports report the same metrics: in either world a worker
/// records into a registry of its own and ships its accounting home in
/// its summary, which the master records. Runs both backends regardless
/// of `PACE_TRANSPORT`.
#[test]
fn channel_and_uds_report_the_same_phases() {
    let store = dataset(72, 4000);
    let channel = Obs::noop();
    Pace::new(cfg(4))
        .cluster_store_obs(&store, &channel)
        .expect("channel run");
    let uds = Obs::noop();
    let opts = pace::UdsLaunchOpts::new(env!("CARGO_BIN_EXE_pace"));
    pace::cluster_store_uds(&store, &cfg(4), &opts, &uds).expect("uds run");
    let (channel, uds) = (channel.registry().snapshot(), uds.registry().snapshot());
    for (transport, snap) in [("channel", &channel), ("uds", &uds)] {
        let count = |phase: &str| snap.phases.get(phase).map_or(0, |agg| agg.count);
        assert_eq!(count(metric::PHASE_PARTITIONING), 4, "{transport}");
        assert_eq!(count(metric::PHASE_TOTAL), 1, "{transport}");
        for phase in [
            metric::PHASE_GST_CONSTRUCTION,
            metric::PHASE_NODE_SORTING,
            metric::PHASE_PAIR_GENERATION,
            metric::PHASE_ALIGNMENT,
        ] {
            assert_eq!(count(phase), 3, "{transport}: {phase}");
        }
        assert!(count(metric::PHASE_ALIGN_BATCH) > 0, "{transport}");
        let mcs = snap.histograms.get(metric::PAIRS_MCS_LEN);
        assert_eq!(
            mcs.map_or(0, |h| h.count()),
            snap.counters[metric::PAIRS_GENERATED],
            "{transport}: the MCS histogram must count every generated pair"
        );
    }
    // Counter, gauge, histogram and phase names, kind by kind.
    let names = |snap: &pace::obs::RegistrySnapshot| -> Vec<String> {
        (snap.counters.keys())
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .chain(snap.phases.keys())
            .cloned()
            .collect()
    };
    assert_eq!(names(&channel), names(&uds), "metric names differ");
    for counter in [
        metric::GST_NODES,
        metric::GST_SUBTREES,
        metric::GST_BUCKETS,
        metric::PAIRS_GENERATED,
    ] {
        assert_eq!(
            channel.counters[counter], uds.counters[counter],
            "{counter}"
        );
    }
    // Both transports build the same forests and set up the same
    // generators, and on this input each generator's largest pair buffer
    // is its first band's, which no request size changes.
    for gauge in [
        metric::GST_MAX_DEPTH,
        metric::GST_MEMORY_BYTES,
        metric::PAIRGEN_MEMORY_BYTES,
    ] {
        assert!(channel.gauges[gauge] > 0.0, "{gauge}");
        assert_eq!(channel.gauges[gauge], uds.gauges[gauge], "{gauge}");
    }
}

#[test]
fn drop_seed_0() {
    check_recoverable(FaultProfile::Drop, MATRIX_SEEDS[0]);
}
#[test]
fn drop_seed_1() {
    check_recoverable(FaultProfile::Drop, MATRIX_SEEDS[1]);
}
#[test]
fn drop_seed_2() {
    check_recoverable(FaultProfile::Drop, MATRIX_SEEDS[2]);
}
#[test]
fn drop_seed_3() {
    check_recoverable(FaultProfile::Drop, MATRIX_SEEDS[3]);
}

#[test]
fn delay_seed_0() {
    check_recoverable(FaultProfile::Delay, MATRIX_SEEDS[0]);
}
#[test]
fn delay_seed_1() {
    check_recoverable(FaultProfile::Delay, MATRIX_SEEDS[1]);
}
#[test]
fn delay_seed_2() {
    check_recoverable(FaultProfile::Delay, MATRIX_SEEDS[2]);
}
#[test]
fn delay_seed_3() {
    check_recoverable(FaultProfile::Delay, MATRIX_SEEDS[3]);
}

#[test]
fn crash_seed_0() {
    check_crash(MATRIX_SEEDS[0]);
}
#[test]
fn crash_seed_1() {
    check_crash(MATRIX_SEEDS[1]);
}
#[test]
fn crash_seed_2() {
    check_crash(MATRIX_SEEDS[2]);
}
#[test]
fn crash_seed_3() {
    check_crash(MATRIX_SEEDS[3]);
}

/// A seeded plan is a pure function of its inputs — the whole harness
/// relies on schedules being replayable.
#[test]
fn seeded_plans_are_deterministic() {
    for profile in [FaultProfile::Drop, FaultProfile::Delay, FaultProfile::Crash] {
        for seed in MATRIX_SEEDS {
            assert_eq!(
                FaultPlan::seeded(profile, seed, 4),
                FaultPlan::seeded(profile, seed, 4)
            );
        }
        assert_ne!(
            FaultPlan::seeded(profile, MATRIX_SEEDS[0], 4),
            FaultPlan::seeded(profile, MATRIX_SEEDS[1], 4),
            "different seeds produced identical {profile} plans"
        );
    }
}

proptest! {
    // Full pipelines per case; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any drop/delay-only plan is invisible in the output: same
    /// partition as fault-free, conservation exact, no pair aligned
    /// twice. (Crashes legitimately change reachable pairs, so they are
    /// covered by the pinned-seed tests above instead.)
    #[test]
    fn random_drop_delay_plans_preserve_partition(
        fault_seed in 0u64..100_000,
        p in 2usize..5,
        use_delay in any::<bool>(),
    ) {
        let profile = if use_delay { FaultProfile::Delay } else { FaultProfile::Drop };
        let store = dataset(48, 7);
        let clean = run(&store, cfg(p));

        let mut c = cfg(p);
        c.faults = FaultPlan::seeded(profile, fault_seed, p);
        c.cluster.slave_timeout = 0.05;
        c.cluster.max_retries = 200;
        // Channel backend regardless of PACE_TRANSPORT: spawning worker
        // processes per proptest case would dominate the suite; the
        // pinned-seed matrix above covers the socket backend.
        let faulted = {
            let store = store.clone();
            watched(move || run(&store, c))
        };

        let what = format!("{profile} random seed {fault_seed} p {p}");
        let agreement = pace::quality::assess(&faulted.labels, &clean.labels);
        prop_assert_eq!(
            agreement.counts.fp + agreement.counts.fn_,
            0,
            "{}: faulted partition diverges: {}", what, agreement
        );
        prop_assert_eq!(faulted.stats.faults.lost_pairs, 0);
        prop_assert_eq!(
            faulted.stats.pairs_generated,
            faulted.stats.pairs_processed
                + faulted.stats.pairs_skipped
                + faulted.stats.pairs_unconsumed
        );
        prop_assert_eq!(
            faulted.counters.get(metric::ALIGN_WS_REUSES).copied().unwrap_or(0),
            faulted.stats.pairs_processed,
            "{}: a pair was aligned twice", what
        );
    }
}
