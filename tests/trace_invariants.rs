//! Pair-flow conservation through the *trace*: the causal dispatch→report
//! flow edges recorded by the tracer must tell the same conservation
//! story as the protocol's own `faults.*` books.
//!
//! Every dispatched batch opens a flow keyed on `(slave, seq)`; the
//! slave's report is a step on it and the master's `handle_report`
//! closes it. So, with pinned fault seeds:
//!
//! - **Lossless schedules** (drop/delay — every report is eventually
//!   delivered via resend, and `faults.lost_pairs == 0`): every flow
//!   resolves. An unresolved flow here would mean the trace invented a
//!   loss the protocol says never happened.
//! - **Crash schedules**: resolved + unresolved = total, and unresolved
//!   flows may exist only when the master actually declared a slave
//!   dead — the trace's unclosed arrows are exactly the in-flight
//!   batches a crash orphaned.
//!
//! The remaining structural invariants (utilization ∈ [0, 1], critical
//! path ≤ wall clock) are asserted on every run, faulted or not.

use pace::obs::trace::{analyze, Analysis};
use pace::obs::{Event, Obs, TraceDoc, VecSink};
use pace::{FaultPlan, FaultProfile, Pace, PaceConfig, SequenceStore, SimConfig};
use std::sync::mpsc;
use std::time::Duration;

/// Pinned seeds, matching the CI fault matrix (`tests/fault_injection.rs`).
const SEEDS: [u64; 2] = [11, 47];

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

fn cfg(p: usize) -> PaceConfig {
    let mut c = PaceConfig::small_inputs();
    c.cluster.psi = 16;
    c.cluster.overlap.min_overlap_len = 40;
    c.num_processors = p;
    c
}

struct TracedRun {
    stats: pace::cluster::ClusterStats,
    analysis: Analysis,
    events: Vec<Event>,
}

/// Run the pipeline with both a tracer and an event sink attached, on a
/// watchdog thread (a deadlocked faulted protocol must fail, not hang).
fn run_traced(store: &SequenceStore, config: PaceConfig) -> TracedRun {
    let (tx, rx) = mpsc::channel();
    let store = store.clone();
    let handle = std::thread::spawn(move || {
        let sink = VecSink::shared();
        let obs = Obs::with_sink_and_tracer(Box::new(sink.clone()));
        let outcome = Pace::new(config).cluster_store_obs(&store, &obs).unwrap();
        let doc = TraceDoc::from_tracer(obs.tracer().expect("tracer attached"));
        let _ = tx.send(TracedRun {
            stats: outcome.result.stats,
            analysis: analyze(&doc),
            events: sink.snapshot(),
        });
    });
    let out = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("traced faulted run deadlocked: no result within watchdog timeout");
    handle.join().expect("runner thread panicked");
    out
}

/// The always-true structural invariants, independent of fault profile.
fn assert_structure(r: &TracedRun, what: &str) {
    let a = &r.analysis;
    assert!(a.flows_total > 0, "{what}: no flows recorded");
    assert_eq!(
        a.flows_resolved + a.flows_unresolved,
        a.flows_total,
        "{what}: flow accounting does not add up"
    );
    assert_eq!(a.flows_orphan_ends, 0, "{what}: flow end without a start");
    for rb in &a.ranks {
        assert!(
            (0.0..=1.0).contains(&rb.utilization),
            "{what}: rank {} utilization {} outside [0,1]",
            rb.rank,
            rb.utilization
        );
    }
    assert!(
        a.critical_path_secs <= a.wall_secs * (1.0 + 1e-9) + 1e-9,
        "{what}: critical path {}s exceeds wall {}s",
        a.critical_path_secs,
        a.wall_secs
    );
}

/// A lossless schedule closes every flow: the master over 3 slaves.
fn check_lossless(profile: FaultProfile, seed: u64) {
    let p = 4;
    let store = dataset(72, 1000 + seed);
    let mut config = cfg(p);
    config.faults = FaultPlan::seeded(profile, seed, p);
    config.cluster.slave_timeout = 0.05;
    config.cluster.max_retries = 200;
    let r = run_traced(&store, config);
    let what = format!("{profile} seed {seed}");

    assert_structure(&r, &what);
    // The protocol books say nothing was lost...
    assert_eq!(r.stats.faults.lost_pairs, 0, "{what}: pairs lost");
    // ...so the trace must close every dispatch→report arrow.
    assert_eq!(
        r.analysis.flows_unresolved, 0,
        "{what}: trace left flows unresolved on a lossless schedule"
    );
    // Injected faults are attributed: each fault event names its rank,
    // and sender-side verdicts carry the transport sequence number.
    let injected: Vec<&Event> = r
        .events
        .iter()
        .filter(|e| matches!(e, Event::Fault { kind, .. } if kind.starts_with("injected.")))
        .collect();
    assert!(!injected.is_empty(), "{what}: seeded plan injected nothing");
    for e in &injected {
        if let Event::Fault { kind, seq, .. } = e {
            if kind == "injected.drop" || kind == "injected.delay" {
                assert!(
                    seq.is_some(),
                    "{what}: {kind} event lacks its transport sequence number"
                );
            }
        }
    }
}

#[test]
fn drop_seed_trace_closes_every_flow() {
    for seed in SEEDS {
        check_lossless(FaultProfile::Drop, seed);
    }
}

#[test]
fn delay_seed_trace_closes_every_flow() {
    for seed in SEEDS {
        check_lossless(FaultProfile::Delay, seed);
    }
}

#[test]
fn crash_seed_unresolved_flows_are_attributed_to_dead_slaves() {
    for seed in SEEDS {
        let p = 4;
        let store = dataset(96, 2000 + seed);
        let mut config = cfg(p);
        config.faults = FaultPlan::seeded(FaultProfile::Crash, seed, p);
        config.cluster.slave_timeout = 0.25;
        config.cluster.max_retries = 3;
        let r = run_traced(&store, config);
        let what = format!("crash seed {seed}");

        assert_structure(&r, &what);
        // The books stay balanced even with a dead rank.
        assert_eq!(
            r.stats.pairs_generated,
            r.stats.pairs_processed + r.stats.pairs_skipped + r.stats.pairs_unconsumed,
            "{what}: pair-flow conservation violated"
        );
        // An unclosed arrow is only legitimate when a slave actually
        // died with batches in flight.
        if r.analysis.flows_unresolved > 0 {
            assert!(
                r.stats.faults.dead_slaves >= 1,
                "{what}: {} unresolved flows but no slave was declared dead",
                r.analysis.flows_unresolved
            );
        }
    }
}
