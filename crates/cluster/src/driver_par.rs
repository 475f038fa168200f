//! Parallel driver: the master–slave protocol over `p` ranks.
//!
//! The rank layout is the paper's: the master at rank 0 and slave `i`
//! at rank `i + 1`, so a world needs `p ≥ 2`. The master runs the
//! protocol loop here and every slave the loop of
//! [`slave`](crate::slave). The phases mirror the paper's system: (1)
//! each slave counts its share of the suffixes per bucket and the counts
//! are combined with the parallel-summation collective; (2) buckets are
//! assigned deterministically and each slave builds the subtrees it
//! owns; (3) the clustering protocol runs until the master issues
//! shutdowns. Phase times are per-rank registry samples; each phase's
//! max over ranks is its critical-path time, as in Table 3.
//!
//! There is one parallel path. [`cluster_master_transport`] runs rank 0
//! and [`cluster_worker_transport`] any other rank over a `Rank<Msg>`;
//! the launcher hands them socket-backed ranks in separate processes
//! (`--transport uds`), and [`cluster_parallel_faults`] runs the same
//! two entries on threads of one channel world. Either way a worker
//! records into a registry of its own and ends by sending rank 0 its
//! [`WorkerSummary`]; rank 0 records every summary that arrives, absorbs
//! its communication counters from `pace-mpisim`, puts the master's
//! busy fraction (the paper's "< 2%" claim) in `master.busy_frac`, and
//! with a tracer attached records a `merge` instant for every union it
//! performs and one instant per recovery action.

use crate::cluster_core::emit_merges;
use crate::config::ClusterConfig;
use crate::driver_seq::{cluster_sequential_obs, record_cluster_counters};
use crate::master::{FaultNote, Master};
use crate::messages::{Msg, WorkerSummary};
use crate::slave::run_slave_obs;
use crate::stats::ClusterResult;
use crate::trace::MergeTrace;
use pace_gst::{assign_buckets, build_in_scope_forest, count_buckets_stride, num_buckets};
use pace_mpisim::{run_world_obs, FaultPlan, FaultSnapshot, Rank, WorldStats};
use pace_obs::trace::{
    flow_id, T_ABANDONED, T_DEAD_SLAVE, T_DISPATCH, T_DUPLICATE_REPORT, T_HANDLE_REPORT, T_RESEND,
};
use pace_obs::{metric, Obs, Timer, TraceKind};
use pace_seq::{PackedText, SequenceStore};
use std::time::{Duration, Instant};

/// Copies of each unacknowledged control message — the master's
/// `Shutdown` or a worker's final `Summary` — sent when a fault plan is
/// active. Bounded redundancy (three distinct transport sequence
/// numbers) is what guarantees delivery past the bounded per-channel
/// drop rules of seeded plans (`MAX_SEEDED_DROPS_PER_CHANNEL` in
/// `pace-mpisim`).
const REDUNDANCY: usize = 3;

/// Copies to send of one unacknowledged control message.
fn copies(under_faults: bool) -> usize {
    if under_faults {
        REDUNDANCY
    } else {
        1
    }
}

/// What the master at rank 0 hands to the fold.
struct Root {
    result: ClusterResult,
    trace: MergeTrace,
    /// Which slaves the master declared dead: summary collection must
    /// not wait on those.
    dead: Vec<bool>,
    injected: FaultSnapshot,
    /// Worker summaries that arrived during the protocol, by sender rank
    /// (a slave can finish while the others are still being shut down).
    early_summaries: Vec<(usize, WorkerSummary)>,
}

/// Cluster with `p` ranks: one master and `p − 1` slaves. `p ≤ 1` falls
/// back to the sequential driver.
pub fn cluster_parallel(store: &SequenceStore, cfg: &ClusterConfig, p: usize) -> ClusterResult {
    cluster_parallel_obs(store, cfg, p, &Obs::noop()).0
}

/// Fully instrumented parallel run, also returning the run's
/// [`MergeTrace`] (replaying it reproduces the returned labels). Rank 0
/// records into `obs`'s registry, every rank into its tracer if one is
/// attached.
pub fn cluster_parallel_obs(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cluster_parallel_faults(store, cfg, p, &FaultPlan::none(), obs)
}

/// [`cluster_parallel_obs`] under a deterministic [`FaultPlan`]:
/// messages between ranks may be dropped, delayed, or silenced by an
/// injected crash, and the master's timeout/retry/reassignment machinery
/// recovers; pairs a crash takes with it land in `faults.lost_pairs` —
/// loud failure, never silent divergence. With an empty plan this *is*
/// `cluster_parallel_obs`.
///
/// Each rank is a thread running the same entry a process would:
/// [`cluster_master_transport`] on rank 0, [`cluster_worker_transport`]
/// on the others, each worker with a registry of its own on `obs`'s
/// tracer and clock. A worker the plan crashed counts into
/// `faults.injected.crashes`, as the launcher counts a crashed worker
/// process.
pub fn cluster_parallel_faults(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
    plan: &FaultPlan,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    if p <= 1 {
        return cluster_sequential_obs(store, cfg, obs);
    }
    let under_faults = !plan.is_empty();
    let mut outputs = run_world_obs(p, plan, obs, |rank| {
        if rank.rank() == 0 {
            let books = cluster_master_transport(store, cfg, &rank, under_faults, obs);
            return Some(books);
        }
        let own = obs.with_own_registry();
        if cluster_worker_transport(store, cfg, &rank, under_faults, &own) {
            obs.registry().add(metric::FAULTS_INJECTED_CRASHES, 1);
        }
        None
    });
    outputs.swap_remove(0).expect("rank 0 runs the master")
}

/// Run rank 0 of the protocol over a transport-backed [`Rank`]: the
/// master's loop, then the collection of worker summaries, then the
/// fold into one result.
///
/// Worker summaries arrive as [`Msg::Summary`] messages and are
/// collected within a bounded window (crashed workers never send one);
/// the fold tolerates missing summaries by crediting the absent
/// generator with exactly the pairs the master received from it,
/// keeping flow conservation exact.
pub fn cluster_master_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    assert_eq!(rank.rank(), 0, "rank 0 runs the master");
    assert!(rank.size() >= 2, "a world needs a master and a slave");
    let total_span = obs.span(metric::PHASE_TOTAL);

    let mut root = run_master(rank, store.num_ests(), cfg, under_faults, obs);
    let summaries = collect_summaries(rank, cfg, &mut root);
    total_span.finish();
    fold(root, rank.stats(), &summaries, obs)
}

/// Collect the slaves' final summaries, by sender rank: the ones that
/// arrived during the protocol plus whatever comes within a bounded
/// window. Crashed workers never send one, and the master's dead slaves
/// are not waited for; the window bounds the wait if a slave dies
/// between its `Shutdown` and its summary.
fn collect_summaries(
    rank: &Rank<Msg>,
    cfg: &ClusterConfig,
    root: &mut Root,
) -> Vec<(usize, WorkerSummary)> {
    let expected = root.dead.iter().filter(|d| !**d).count();
    let mut slots: Vec<Option<WorkerSummary>> = vec![None; root.dead.len()];
    let mut received = 0usize;
    let mut arrived = std::mem::take(&mut root.early_summaries);
    let window = (cfg.slave_timeout * (f64::from(cfg.max_retries) + 1.0)).clamp(1.0, 10.0);
    let deadline = Instant::now() + Duration::from_secs_f64(window);
    loop {
        for (from, s) in arrived.drain(..) {
            if let Some(slot @ None) = from.checked_sub(1).and_then(|idx| slots.get_mut(idx)) {
                *slot = Some(s);
                received += 1;
            }
        }
        let now = Instant::now();
        if received >= expected || now >= deadline {
            break;
        }
        let poll = (deadline - now).min(Duration::from_millis(50));
        match rank.recv_timeout(poll) {
            Ok(Some((from, Msg::Summary(s)))) => arrived.push((from, s)),
            // Stray copies from resend redundancy (duplicate reports):
            // ignore.
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }
    slots
        .into_iter()
        .enumerate()
        .filter_map(|(idx, summary)| Some((idx + 1, summary?)))
        .collect()
}

/// Run one slave rank over a transport-backed [`Rank`]. The slave ends
/// by sending its [`Msg::Summary`] to rank 0 (skipped when an injected
/// crash severed the connection — the fold tolerates the gap). Returns
/// whether this rank crashed, which a worker process turns into its
/// [`pace_mpisim::INJECTED_CRASH_EXIT`] status.
pub fn cluster_worker_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> bool {
    cfg.validate().expect("invalid cluster config");
    assert!(rank.rank() >= 1, "rank 0 runs the master");
    let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
    let mut summary = slave_rank(rank, store, packed.as_ref(), cfg, obs);
    if !rank.crashed() {
        let injected = rank.fault_stats();
        summary.injected_drops = injected.dropped;
        summary.injected_delays = injected.delayed;
        summary.injected_stalls = injected.stalls;
        for _ in 0..copies(under_faults) {
            rank.send(0, Msg::Summary(summary.clone()));
        }
    }
    rank.crashed()
}

/// The paper's master at rank 0. It holds no input share, so it joins
/// the partitioning collective with a zero contribution (and records the
/// combined counts' non-empty buckets as `gst.buckets`) and waits at the
/// barrier while the slaves build their forests. Then it runs the
/// protocol loop: fold each report into `CLUSTERS` and dispatch its
/// successor, sweep deadlines, and record each recovery action and each
/// union as a trace instant as it happens, until it has shut its slaves
/// down. Worker summaries that arrive during the loop (a slave can
/// finish while the others are still being shut down) are kept for the
/// fold.
fn run_master(
    rank: &Rank<Msg>,
    num_ests: usize,
    cfg: &ClusterConfig,
    under_faults: bool,
    obs: &Obs,
) -> Root {
    let me = rank.rank();
    let span = obs.span_on(metric::PHASE_PARTITIONING, me);
    let zeros = vec![0u64; num_buckets(cfg.window_w)];
    let global_counts = rank.allreduce_sum(&zeros);
    span.finish();
    let nonempty = global_counts.iter().filter(|&&c| c > 0).count();
    obs.registry().add(metric::GST_BUCKETS, nonempty as u64);
    rank.barrier();
    let num_slaves = rank.size() - 1;
    let mut master = Master::new(num_ests, num_slaves, cfg.clone());
    master.begin(obs.now());
    // Wake at a quarter of the slave timeout so overdue batches are
    // noticed promptly without busy-spinning.
    let poll = Duration::from_secs_f64((cfg.slave_timeout / 4.0).clamp(0.001, 0.05));
    let send_replies = |replies: Vec<(usize, Msg)>| {
        for (slave, reply) in replies {
            // A dispatched batch opens a causal flow keyed on (slave,
            // seq); the slave's report closes it. Resends re-open the
            // same id, so the arrow tracks the delivery that worked.
            if let Msg::Work { seq, pairs, .. } = &reply {
                obs.trace_with(|tracer| {
                    let t = obs.now_us();
                    let id = flow_id(slave, *seq);
                    tracer.flow(TraceKind::FlowStart, me, t, id);
                    tracer.instant(me, T_DISPATCH, t, id, pairs.len() as u64);
                });
            }
            // Shutdown has no ack; under a fault plan, bounded
            // redundancy carries it past the bounded drop rules.
            let n = match reply {
                Msg::Shutdown => copies(under_faults),
                _ => 1,
            };
            let to = slave + 1;
            for _ in 1..n {
                rank.send(to, reply.clone());
            }
            rank.send(to, reply);
        }
    };
    let loop_t0 = obs.now();
    let mut busy = Timer::new();
    let mut merges_emitted = 0;
    let mut early_summaries = Vec::new();
    while !master.is_done() {
        let mut got_report = false;
        match rank.recv_timeout(poll) {
            Ok(Some((from, msg))) => {
                busy.start();
                match msg {
                    Msg::Report {
                        seq,
                        results,
                        pairs,
                        exhausted,
                    } => {
                        let slave = from - 1;
                        got_report = true;
                        let t0_us = obs.trace_enabled().then(|| obs.now_us());
                        send_replies(master.handle_report(
                            slave,
                            seq,
                            results,
                            pairs,
                            exhausted,
                            obs.now(),
                        ));
                        if let Some(t0) = t0_us {
                            obs.trace_with(|tracer| {
                                let end = obs.now_us();
                                let id = flow_id(slave, seq);
                                // The span covers both folding the report
                                // in and dispatching its successor, so the
                                // flow end and the next flow start land
                                // inside it.
                                tracer.span(
                                    me,
                                    T_HANDLE_REPORT,
                                    t0,
                                    end.saturating_sub(t0),
                                    id,
                                    seq,
                                );
                                tracer.flow(TraceKind::FlowEnd, me, t0, id);
                            });
                        }
                    }
                    Msg::Summary(s) => early_summaries.push((from, s)),
                    other => unreachable!("master received {}", other.kind()),
                }
                busy.stop();
            }
            Ok(None) => {}
            // The world is tearing down: every slave is gone (a crashed
            // run, or an external abort). Settle the books and stop
            // instead of waiting on messages that can never arrive.
            Err(_) => master.handle_world_down(),
        }
        if !master.is_done() {
            busy.start();
            send_replies(master.tick(obs.now()));
            busy.stop();
        }

        for note in master.drain_fault_notes() {
            // Structural attribution: the batch's sequence number (or the
            // pairs the action moved) as `id`, the slave as `arg`.
            let (name, id, arg) = match note {
                FaultNote::Resend { slave, seq } => (T_RESEND, seq, slave as u64),
                FaultNote::DeadSlave { slave, reassigned } => {
                    (T_DEAD_SLAVE, reassigned as u64, slave as u64)
                }
                FaultNote::DuplicateReport { slave, seq } => {
                    (T_DUPLICATE_REPORT, seq, slave as u64)
                }
                FaultNote::Abandoned { pairs } => (T_ABANDONED, 0, pairs),
            };
            obs.trace_with(|tracer| tracer.instant(me, name, obs.now_us(), id, arg));
        }
        if got_report {
            emit_merges(obs, &master.core.trace.records()[merges_emitted..]);
            merges_emitted = master.core.trace.len();
        }
    }
    let loop_total = (obs.now() - loop_t0).max(f64::EPSILON);
    let dead = (0..num_slaves).map(|s| master.is_dead(s)).collect();
    let (mut result, trace) = master.core.into_result();
    result.stats.master_busy_frac = busy.secs() / loop_total;
    Root {
        result,
        trace,
        dead,
        injected: rank.fault_stats(),
        early_summaries,
    }
}

/// A slave rank: count its share of the suffixes, combine the counts,
/// build its buckets' subtrees, then run the slave loop (node sorting
/// happens inside).
fn slave_rank(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    cfg: &ClusterConfig,
    obs: &Obs,
) -> WorkerSummary {
    let (slave_id, num_slaves) = (rank.rank() - 1, rank.size() - 1);

    // Phase 1: partitioning — count my share, combine, assign.
    let span = obs.span_on(metric::PHASE_PARTITIONING, rank.rank());
    let local = count_buckets_stride(store, cfg.window_w, slave_id, num_slaves);
    let global = rank.allreduce_sum(&local);
    let partition = assign_buckets(&global, num_slaves);
    let partitioning = span.finish();

    // Phase 2: build my buckets' subtrees.
    let span = obs.span_on(metric::PHASE_GST_CONSTRUCTION, rank.rank());
    let forest = build_in_scope_forest(store, &partition, slave_id, cfg.psi);
    let gst_construction = span.finish();
    let (gst_nodes, gst_subtrees) = (forest.num_nodes() as u64, forest.subtrees.len() as u64);
    let gst_max_depth = forest.max_depth(store);
    let gst_memory_bytes = forest.memory_bytes() as u64;
    rank.barrier();

    // Phases 3–4: the slave protocol.
    let summary = run_slave_obs(rank, store, packed, &forest, cfg, obs);
    WorkerSummary {
        partitioning,
        gst_construction,
        gst_nodes,
        gst_subtrees,
        gst_max_depth,
        gst_memory_bytes,
        ..summary
    }
}

/// Fold the master's books and the arrived worker summaries into one
/// result. Each summary is recorded on its worker's rank: its phase
/// seconds, its `align_batch` series, its MCS-length histogram, its
/// generator's peak buffer and footprint, and its forest's shape and
/// footprint. The summaries' pair
/// counters are credited with exact pair-flow conservation; then rank
/// 0's communication counters, the injector counters (rank 0's plus
/// every summary's) and the run's pair and fault counters are published.
fn fold(
    root: Root,
    comm: WorldStats,
    summaries: &[(usize, WorkerSummary)],
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    let Root {
        mut result,
        trace,
        mut injected,
        ..
    } = root;
    let reg = obs.registry();
    let stats = &mut result.stats;
    let (mut generated, mut unconsumed, mut prefiltered, mut ws_reuses) = (0u64, 0u64, 0u64, 0u64);
    for (rank, s) in summaries {
        let alignment = s.align_batches.iter().sum();
        for (phase, secs) in [
            (metric::PHASE_PARTITIONING, s.partitioning),
            (metric::PHASE_GST_CONSTRUCTION, s.gst_construction),
            (metric::PHASE_NODE_SORTING, s.node_sorting),
            (metric::PHASE_PAIR_GENERATION, s.pair_generation),
            (metric::PHASE_ALIGNMENT, alignment),
        ] {
            reg.record_phase(phase, *rank, secs);
        }
        for &secs in &s.align_batches {
            reg.record_phase(metric::PHASE_ALIGN_BATCH, *rank, secs);
        }
        for &(len, n) in &s.mcs_len {
            reg.observe_n(metric::PAIRS_MCS_LEN, u64::from(len), n);
        }
        reg.set_gauge_max(metric::PAIRGEN_PEAK_BUFFERED, s.peak_buffered as f64);
        reg.set_gauge_max(metric::PAIRGEN_MEMORY_BYTES, s.pairgen_memory_bytes as f64);
        reg.add(metric::GST_NODES, s.gst_nodes);
        reg.add(metric::GST_SUBTREES, s.gst_subtrees);
        reg.set_gauge_max(metric::GST_MAX_DEPTH, f64::from(s.gst_max_depth));
        reg.set_gauge_max(metric::GST_MEMORY_BYTES, s.gst_memory_bytes as f64);
        generated += s.gen_emitted;
        unconsumed += s.unconsumed;
        prefiltered += s.prefiltered;
        ws_reuses += s.ws_reuses;
        injected.dropped += s.injected_drops;
        injected.delayed += s.injected_delays;
        injected.stalls += s.injected_stalls;
    }
    // Pairs the generators emitted that were neither resolved by the
    // master (processed or skipped) nor still buffered on a slave were
    // lost to injected faults: dropped in flight, or held by a slave
    // that died. Folding them into
    // `pairs_unconsumed` keeps `generated == processed + skipped +
    // unconsumed` exact under every schedule. Fault-free runs — and
    // drop/delay-only plans, whose every report is eventually delivered
    // via resend — have `lost == 0`, which the tests assert as the
    // non-tautological form of conservation.
    //
    // A crashed worker's summary never arrives, so `generated` can
    // undercount what the master actually received; the max() restores
    // conservation by crediting the missing generator with exactly the
    // pairs the master saw from it.
    let resolved = stats.pairs_processed + stats.pairs_skipped + unconsumed;
    let generated = generated.max(resolved);
    stats.faults.lost_pairs = generated - resolved;
    stats.pairs_generated = generated;
    stats.pairs_unconsumed = unconsumed + stats.faults.lost_pairs;
    stats.pairs_prefiltered = prefiltered;
    stats.messages = comm.messages;

    reg.add(metric::COMM_MESSAGES, comm.messages);
    reg.add(metric::COMM_BYTES, comm.bytes);
    reg.add(metric::COMM_BARRIERS, comm.barriers);
    reg.add(metric::COMM_REDUCTIONS, comm.reductions);
    reg.add(metric::FAULTS_INJECTED_DROPS, injected.dropped);
    reg.add(metric::FAULTS_INJECTED_DELAYS, injected.delayed);
    reg.add(metric::FAULTS_INJECTED_CRASHES, injected.crashes);
    reg.add(metric::FAULTS_INJECTED_STALLS, injected.stalls);
    // Every result the master folded in came off a slave's long-lived
    // workspace, so this equals `pairs.processed` by construction.
    reg.add(metric::ALIGN_WS_REUSES, ws_reuses);
    record_cluster_counters(obs, stats);
    (result, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver_seq::cluster_sequential;
    use pace_simulate::{generate, SimConfig};

    fn small_cfg() -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c.batchsize = 8;
        c
    }

    fn dataset(n: usize, seed: u64) -> pace_simulate::EstDataset {
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

    #[test]
    fn parallel_matches_sequential_partition_on_clean_data() {
        let ds = {
            let mut cfg = SimConfig {
                num_genes: 10,
                num_ests: 100,
                est_len_mean: 220.0,
                est_len_sd: 25.0,
                est_len_min: 120,
                exon_len: (220, 400),
                exons_per_gene: (1, 2),
                seed: 21,
                ..SimConfig::default()
            };
            cfg.error_rate = 0.0;
            generate(&cfg)
        };
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let seq = cluster_sequential(&store, &small_cfg());
        for p in [2, 3, 5] {
            let par = cluster_parallel(&store, &small_cfg(), p);
            let agreement = pace_quality::assess(&par.labels, &seq.labels);
            assert!(
                agreement.oq > 0.99,
                "p={p}: parallel partition diverged: {agreement}"
            );
            assert_eq!(par.labels.len(), ds.ests.len());
        }
    }

    #[test]
    fn parallel_quality_against_truth() {
        let ds = dataset(120, 22);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let par = cluster_parallel(&store, &small_cfg(), 4);
        let m = pace_quality::assess(&par.labels, &ds.truth);
        assert!(m.oq > 0.75, "parallel OQ too low: {m}");
        assert!(m.cc > 0.80, "parallel CC too low: {m}");
    }

    #[test]
    fn p1_falls_back_to_sequential() {
        let ds = dataset(40, 23);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let a = cluster_parallel(&store, &small_cfg(), 1);
        let b = cluster_sequential(&store, &small_cfg());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn two_ranks_single_slave_terminates() {
        let ds = dataset(60, 24);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let r = cluster_parallel(&store, &small_cfg(), 2);
        assert_eq!(r.labels.len(), 60);
        assert!(r.stats.pairs_processed > 0);
        assert!(r.stats.master_busy_frac >= 0.0 && r.stats.master_busy_frac <= 1.0);
        assert!(r.stats.messages > 0);
    }

    #[test]
    fn more_slaves_than_work_terminates() {
        // 6 ESTs, 7 ranks: most slaves own nothing and exhaust instantly.
        let ds = dataset(6, 25);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let r = cluster_parallel(&store, &small_cfg(), 7);
        assert_eq!(r.labels.len(), 6);
    }

    #[test]
    fn stats_aggregate_sensibly() {
        let ds = dataset(80, 26);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let r = cluster_parallel(&store, &small_cfg(), 3);
        let s = &r.stats;
        // Exact flow conservation: every generated pair is processed,
        // skipped, or still sitting in a slave's PAIRBUF at shutdown.
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        );
        assert!(s.pairs_accepted <= s.pairs_processed);
        assert!(s.merges <= s.pairs_accepted);
    }

    #[test]
    fn trace_replay_matches_parallel_labels() {
        let ds = dataset(80, 27);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (r, trace) = cluster_parallel_obs(&store, &small_cfg(), 3, &Obs::noop());
        assert_eq!(trace.len() as u64, r.stats.merges);
        let replayed = trace.replay(80);
        let agreement = pace_quality::assess(&replayed, &r.labels);
        assert_eq!(
            agreement.counts.fp + agreement.counts.fn_,
            0,
            "trace replay diverges from the parallel partition"
        );
    }

    #[test]
    fn registry_absorbs_comm_and_phase_series() {
        let ds = dataset(60, 28);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::noop();
        let (r, _) = cluster_parallel_obs(&store, &small_cfg(), 4, &obs);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters[metric::COMM_MESSAGES], r.stats.messages);
        assert!(snap.counters[metric::COMM_BARRIERS] >= 1);
        assert!(snap.counters[metric::COMM_REDUCTIONS] >= 1);
        assert_eq!(
            snap.counters[metric::PAIRS_GENERATED],
            r.stats.pairs_generated
        );
        // Every rank recorded a partitioning span; the 3 slaves recorded
        // their gst, sort, pair-generation and align totals.
        assert_eq!(snap.phases[metric::PHASE_PARTITIONING].count, 4);
        for phase in [
            metric::PHASE_GST_CONSTRUCTION,
            metric::PHASE_NODE_SORTING,
            metric::PHASE_PAIR_GENERATION,
            metric::PHASE_ALIGNMENT,
        ] {
            assert_eq!(snap.phases[phase].count, 3, "{phase}");
        }
        assert_eq!(
            snap.gauges[metric::MASTER_BUSY_FRAC],
            r.stats.master_busy_frac
        );
        // The generators' MCS histogram covers every generated pair.
        assert_eq!(
            snap.histograms[metric::PAIRS_MCS_LEN].count(),
            r.stats.pairs_generated
        );
    }

    #[test]
    fn trace_records_flows_and_satisfies_invariants() {
        let ds = dataset(100, 30);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::with_tracer();
        let (r, _) = cluster_parallel_obs(&store, &small_cfg(), 3, &obs);
        assert!(r.stats.pairs_processed > 0);
        let tracer = obs.tracer().unwrap();
        assert!(tracer.recorded() > 0);

        let doc = pace_obs::TraceDoc::from_tracer(tracer);
        let analysis = pace_obs::trace::analyze(&doc);
        let problems = analysis.check_invariants();
        assert!(
            problems.is_empty(),
            "trace invariants violated: {problems:?}"
        );

        // Fault-free: every dispatched batch's flow closes at the master
        // (the non-tautological trace form of pair-flow conservation).
        assert!(analysis.flows_total > 0, "no flows recorded");
        assert_eq!(
            analysis.flows_unresolved, 0,
            "unclosed flows without faults"
        );
        assert_eq!(analysis.flows_orphan_ends, 0);
        assert_eq!(analysis.ranks.len(), 3, "one breakdown per rank");
        assert!(analysis.critical_path_secs <= analysis.wall_secs + 1e-9);
        assert!(
            analysis
                .quantiles
                .contains_key(pace_obs::trace::T_HANDLE_REPORT),
            "master handle_report spans missing from quantiles"
        );
        assert!(analysis
            .quantiles
            .contains_key(pace_obs::trace::T_REPORT_SEND));

        // The Chrome export round-trips through our own parser.
        let json = tracer.to_chrome_json();
        let reparsed = pace_obs::TraceDoc::from_chrome_json(&json).expect("reparse");
        assert_eq!(reparsed.spans.len(), doc.spans.len());
        assert_eq!(reparsed.flows.len(), doc.flows.len());
    }

    #[test]
    fn trace_merge_instants_mirror_merge_trace() {
        let ds = dataset(100, 29);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::with_tracer();
        let (r, trace) = cluster_parallel_obs(&store, &small_cfg(), 3, &obs);
        let doc = pace_obs::TraceDoc::from_tracer(obs.tracer().unwrap());
        let merges: Vec<_> = doc
            .instants
            .iter()
            .filter(|i| i.name == pace_obs::trace::T_MERGE)
            .map(|i| (i.id as usize, i.arg as usize))
            .collect();
        assert!(r.stats.merges > 0);
        assert_eq!(merges.len() as u64, r.stats.merges);
        let traced: Vec<_> = trace.records().iter().map(|m| (m.est_a, m.est_b)).collect();
        assert_eq!(merges, traced, "merge instants must mirror the trace order");
        // Every rank closed at least one phase span.
        for rank in 0..3 {
            assert!(
                doc.spans
                    .iter()
                    .any(|s| s.rank == rank && s.name == metric::PHASE_PARTITIONING),
                "rank {rank} recorded no partitioning span"
            );
        }
    }
}
