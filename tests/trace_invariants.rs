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
//! The trace also holds one instant per injected fault and per master
//! recovery action, so its counts must equal the `faults.*` books: one
//! `resend` instant per retry, one `duplicate_report` per ignored
//! report, one `dead_slave` per slave declared dead.
//!
//! The remaining structural invariants (utilization ∈ [0, 1], critical
//! path ≤ wall clock) are asserted on every run, faulted or not.

use pace::obs::trace::{
    analyze, Analysis, T_ABANDONED, T_DEAD_SLAVE, T_DUPLICATE_REPORT, T_FAULT_DELAY, T_FAULT_DROP,
    T_RESEND,
};
use pace::obs::{Obs, TraceDoc};
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
    doc: TraceDoc,
}

impl TracedRun {
    /// The instants named `name`, as `(id, arg)`.
    fn instants(&self, name: &str) -> Vec<(u64, u64)> {
        self.doc
            .instants
            .iter()
            .filter(|i| i.name == name)
            .map(|i| (i.id, i.arg))
            .collect()
    }
}

/// Run the pipeline with a tracer attached, on a watchdog thread (a
/// deadlocked faulted protocol must fail, not hang).
fn run_traced(store: &SequenceStore, config: PaceConfig) -> TracedRun {
    let (tx, rx) = mpsc::channel();
    let store = store.clone();
    let handle = std::thread::spawn(move || {
        let obs = Obs::with_tracer();
        let outcome = Pace::new(config).cluster_store_obs(&store, &obs).unwrap();
        let doc = TraceDoc::from_tracer(obs.tracer().expect("tracer attached"));
        let _ = tx.send(TracedRun {
            stats: outcome.result.stats,
            analysis: analyze(&doc),
            doc,
        });
    });
    let out = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("traced faulted run deadlocked: no result within watchdog timeout");
    handle.join().expect("runner thread panicked");
    out
}

/// The always-true structural invariants, independent of fault profile:
/// the flow accounting, and one recovery instant per booked recovery
/// action, naming a slave of the `p`-rank world.
fn assert_structure(r: &TracedRun, p: usize, what: &str) {
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
    let faults = &r.stats.faults;
    for (name, booked) in [
        (T_RESEND, faults.retries),
        (T_DUPLICATE_REPORT, faults.duplicate_reports),
        (T_DEAD_SLAVE, faults.dead_slaves),
    ] {
        let instants = r.instants(name);
        assert_eq!(instants.len() as u64, booked, "{what}: {name} instants");
        assert!(
            instants.iter().all(|&(_, slave)| slave < p as u64 - 1),
            "{what}: {name} instant names no slave: {instants:?}"
        );
    }
    let abandoned: u64 = r.instants(T_ABANDONED).iter().map(|&(_, n)| n).sum();
    assert_eq!(abandoned, faults.abandoned_pairs, "{what}: abandoned pairs");
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

    assert_structure(&r, p, &what);
    // The protocol books say nothing was lost...
    assert_eq!(r.stats.faults.lost_pairs, 0, "{what}: pairs lost");
    // ...so the trace must close every dispatch→report arrow.
    assert_eq!(
        r.analysis.flows_unresolved, 0,
        "{what}: trace left flows unresolved on a lossless schedule"
    );
    // Injected faults are attributed: each instant names the channel's
    // destination rank (its `id` is the transport sequence number).
    let name = match profile {
        FaultProfile::Drop => T_FAULT_DROP,
        _ => T_FAULT_DELAY,
    };
    let injected = r.instants(name);
    assert!(!injected.is_empty(), "{what}: no {name} instant");
    assert!(
        injected.iter().all(|&(_, to)| to < p as u64),
        "{what}: {name} instant names no rank: {injected:?}"
    );
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

        assert_structure(&r, p, &what);
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
