//! Parallel driver: the master–slave protocol over `p` ranks.
//!
//! [`Topology`] fixes the rank layout from `cfg.shards`. With `shards ==
//! 0`, the paper's layout, rank 0 is the master and ranks `1..p` are
//! slaves; with `shards = K`, rank 0 is the reconciler of
//! [`driver_sharded`](crate::driver_sharded), ranks `1..=K` are
//! sub-masters and the rest are slaves. Every master runs the one
//! protocol loop here and every slave the one loop of
//! [`slave`](crate::slave). The phases mirror the paper's system: (1)
//! each slave counts its share of the suffixes per bucket and the counts
//! are combined with the parallel-summation collective; (2) buckets are
//! assigned deterministically and each slave builds the subtrees it
//! owns; (3) the clustering protocol runs until the masters issue
//! shutdowns. Phase times are per-rank registry samples; each phase's
//! max over ranks is its critical-path time, as in Table 3.
//!
//! Instrumentation mirrors the sequential driver: every rank records its
//! phases into the shared `pace-obs` registry (over the socket transport
//! rank 0 records them from each worker's summary), communication
//! counters are absorbed from `pace-mpisim`, masters emit periodic
//! heartbeats (the busy fraction is the paper's "< 2%" claim) and the
//! single master a `merge` event for every union it performs.
//!
//! The same protocol runs over any [`pace_mpisim::Transport`]:
//! [`cluster_master_transport`] runs rank 0 and
//! [`cluster_worker_transport`] any other rank over a caller-supplied
//! `Rank<Msg>` (the multi-process socket path).

use crate::cluster_core::{emit_merges, ClusterSets};
use crate::config::{ClusterConfig, Role, Topology};
use crate::driver_seq::{cluster_sequential_obs, record_cluster_counters, record_gst_stats};
use crate::driver_sharded::{fold_sharded, reconciler_rank, submaster_rank, ReconcilerOut};
use crate::master::{FaultNote, Master};
use crate::messages::{Msg, WorkerSummary};
use crate::slave::run_slave_obs;
use crate::stats::{ClusterResult, ClusterStats};
use crate::trace::MergeTrace;
use pace_gst::{assign_buckets, build_forest_for_rank, count_buckets_stride, num_buckets};
use pace_mpisim::{run_world_obs, FaultPlan, FaultSnapshot, Rank, WorldStats};
use pace_obs::trace::{T_DISPATCH, T_HANDLE_REPORT};
use pace_obs::{metric, Event, Obs, Timer, TraceKind};
use pace_seq::{PackedText, SequenceStore};
use std::time::{Duration, Instant};

/// Emit a master heartbeat every this many handled reports.
const HEARTBEAT_EVERY: u64 = 32;

/// Copies of each unacknowledged control message — a master's
/// `Shutdown`, a worker's final `Summary`, a sub-master's `ShardDone` —
/// sent when a fault plan is active. Bounded redundancy (three distinct
/// transport sequence numbers) is what guarantees delivery past the
/// bounded per-channel drop rules of seeded plans
/// (`MAX_SEEDED_DROPS_PER_CHANNEL` in `pace-mpisim`).
pub(crate) const REDUNDANCY: usize = 3;

/// Copies to send of one unacknowledged control message.
pub(crate) fn copies(under_faults: bool) -> usize {
    if under_faults {
        REDUNDANCY
    } else {
        1
    }
}

/// What rank 0 hands to the fold.
struct Root {
    books: Books,
    comm: WorldStats,
    injected: FaultSnapshot,
    /// Worker summaries that arrived during the protocol, by sender rank
    /// (socket backend only; empty on threads).
    early_summaries: Vec<(usize, WorkerSummary)>,
}

/// Rank 0's books, by layout.
enum Books {
    /// The single master's clustering, plus which slaves it declared
    /// dead — summary collection must not wait on those.
    Master {
        result: ClusterResult,
        trace: MergeTrace,
        dead: Vec<bool>,
    },
    /// The reconciler's collected shard state.
    Reconciler(ReconcilerOut),
}

/// Per-rank output of the thread-backed world: rank 0's books, or a
/// worker's summary (`None` for a sub-master, whose output travels to
/// rank 0 as messages).
enum RankOutput {
    Root(Root),
    Worker(Option<WorkerSummary>),
}

/// Record a worker's phase seconds, as its summary carries them, into
/// `obs` on the worker's rank. Only a rank 0 in another process does
/// this: over the channel backend the slaves already wrote the shared
/// registry themselves.
fn record_worker_phases(obs: &Obs, rank: usize, s: &WorkerSummary) {
    let reg = obs.registry();
    for (phase, secs) in [
        (metric::PHASE_PARTITIONING, s.partitioning),
        (metric::PHASE_GST_CONSTRUCTION, s.gst_construction),
        (metric::PHASE_NODE_SORTING, s.node_sorting),
        (metric::PHASE_PAIR_GENERATION, s.pair_generation),
        (metric::PHASE_ALIGNMENT, s.alignment),
    ] {
        reg.record_phase(phase, rank, secs);
    }
}

/// Cluster with `p` ranks in the layout `cfg.shards` selects: one
/// master and `p − 1` slaves, or a reconciler, K sub-masters and
/// `p − K − 1` slaves. `p ≤ 1` falls back to the sequential driver.
pub fn cluster_parallel(store: &SequenceStore, cfg: &ClusterConfig, p: usize) -> ClusterResult {
    cluster_parallel_obs(store, cfg, p, &Obs::noop()).0
}

/// Like [`cluster_parallel`], additionally returning the run's
/// [`MergeTrace`] — replaying it reproduces the returned labels.
pub fn cluster_parallel_traced(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
) -> (ClusterResult, MergeTrace) {
    cluster_parallel_obs(store, cfg, p, &Obs::noop())
}

/// Fully instrumented parallel run. All ranks share `obs`: phase spans
/// land in its per-rank series, communication and pair counters in its
/// registry, heartbeats and merges in its event sink.
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
/// injected crash, and the masters' timeout/retry/reassignment machinery
/// recovers. A crashed sub-master is written off by the reconciler's
/// progress deadline and its pairs land in `faults.lost_pairs` — loud
/// failure, never silent divergence. With an empty plan this *is*
/// `cluster_parallel_obs`.
pub fn cluster_parallel_faults(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
    plan: &FaultPlan,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    if p <= 1 {
        return cluster_sequential_obs(store, cfg, obs);
    }
    let topo = Topology::new(p, cfg.shards).expect("invalid rank layout");
    let total_span = obs.span(metric::PHASE_TOTAL);

    // Pack once, share read-only across every slave's alignment context.
    let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));

    let under_faults = !plan.is_empty();
    let outputs = run_world_obs(p, plan, obs, |rank| {
        if rank.rank() == 0 {
            RankOutput::Root(run_root(&rank, store, cfg, topo, under_faults, obs))
        } else {
            let packed = packed.as_ref();
            RankOutput::Worker(run_worker(
                &rank,
                store,
                packed,
                cfg,
                topo,
                under_faults,
                obs,
            ))
        }
    });

    let mut root = None;
    let mut summaries = Vec::new();
    for out in outputs {
        match out {
            RankOutput::Root(r) => root = Some(r),
            RankOutput::Worker(s) => summaries.extend(s),
        }
    }
    total_span.finish();
    let root = root.expect("rank 0 always yields its books");
    fold(store.num_ests(), topo, root, &summaries, obs)
}

/// Run rank 0 of the protocol over a caller-supplied transport-backed
/// [`Rank`] — the multi-process entry point. The caller (the launcher)
/// builds the world: a [`pace_mpisim::UdsHub`] wrapped by `rank`, with
/// one [`cluster_worker_transport`] process per remaining rank.
///
/// After the protocol completes, worker summaries are collected as
/// [`Msg::Summary`] messages within a bounded window (crashed workers
/// never send one); the fold tolerates missing summaries by crediting
/// the absent generator with exactly the pairs the masters received from
/// it, keeping flow conservation exact.
pub fn cluster_master_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    assert_eq!(rank.rank(), 0, "rank 0 runs in the launcher's process");
    let topo = Topology::new(rank.size(), cfg.shards).expect("invalid rank layout");
    let total_span = obs.span(metric::PHASE_TOTAL);

    let mut root = run_root(rank, store, cfg, topo, under_faults, obs);
    let summaries = collect_summaries(rank, cfg, topo, &mut root, obs);
    total_span.finish();
    fold(store.num_ests(), topo, root, &summaries, obs)
}

/// Collect the slaves' final summaries: the ones that arrived during the
/// protocol plus whatever comes within a bounded window. Crashed workers
/// never send one, and the single master's dead slaves are not waited
/// for; the window bounds the wait if a slave dies between its
/// `Shutdown` and its summary.
fn collect_summaries(
    rank: &Rank<Msg>,
    cfg: &ClusterConfig,
    topo: Topology,
    root: &mut Root,
    obs: &Obs,
) -> Vec<WorkerSummary> {
    let expected = match &root.books {
        Books::Master { dead, .. } => dead.iter().filter(|d| !**d).count(),
        Books::Reconciler(_) => topo.num_slaves(),
    };
    let mut slots: Vec<Option<WorkerSummary>> = vec![None; topo.num_slaves()];
    let mut received = 0usize;
    let mut arrived = std::mem::take(&mut root.early_summaries);
    let window = (cfg.slave_timeout * (f64::from(cfg.max_retries) + 1.0)).clamp(1.0, 10.0);
    let deadline = Instant::now() + Duration::from_secs_f64(window);
    loop {
        for (from, s) in arrived.drain(..) {
            if let Role::Slave(idx) = topo.role_of(from) {
                if slots[idx].is_none() {
                    slots[idx] = Some(s);
                    received += 1;
                }
            }
        }
        let now = Instant::now();
        if received >= expected || now >= deadline {
            break;
        }
        let poll = (deadline - now).min(Duration::from_millis(50));
        match rank.recv_timeout(poll) {
            Ok(Some((from, Msg::Summary(s)))) => arrived.push((from, s)),
            // Stray copies from resend redundancy (duplicate reports,
            // ShardDones): ignore.
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }
    let mut out = Vec::with_capacity(received);
    for (idx, summary) in slots.into_iter().enumerate() {
        if let Some(summary) = summary {
            record_worker_phases(obs, topo.slave_rank(idx), &summary);
            out.push(summary);
        }
    }
    out
}

/// Run one worker rank (a sub-master or a slave, by position) over a
/// caller-supplied transport-backed [`Rank`]. A slave ends by sending its
/// [`Msg::Summary`] to rank 0 (skipped when an injected crash severed
/// the connection — the fold tolerates the gap). Returns whether this
/// rank crashed, which the worker process turns into its
/// [`pace_mpisim::INJECTED_CRASH_EXIT`] status.
pub fn cluster_worker_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> bool {
    cfg.validate().expect("invalid cluster config");
    assert!(rank.rank() >= 1, "rank 0 runs in the launcher's process");
    let topo = Topology::new(rank.size(), cfg.shards).expect("invalid rank layout");
    let is_slave = matches!(topo.role_of(rank.rank()), Role::Slave(_));
    let packed = (is_slave && cfg.packed_alignment).then(|| PackedText::from_store(store));
    let out = run_worker(rank, store, packed.as_ref(), cfg, topo, under_faults, obs);
    if let (Some(mut summary), false) = (out, rank.crashed()) {
        let injected = rank.fault_stats();
        summary.injected_drops = injected.dropped;
        summary.injected_delays = injected.delayed;
        summary.injected_stalls = injected.stalls;
        for _ in 0..copies(under_faults) {
            rank.send(0, Msg::Summary(summary.clone()));
        }
    }
    obs.flush();
    rank.crashed()
}

/// Rank 0: the single master, or the reconciler of a sharded world.
/// Either holds no input share, so it joins the partitioning collective
/// with a zero contribution first.
fn run_root(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    cfg: &ClusterConfig,
    topo: Topology,
    under_faults: bool,
    obs: &Obs,
) -> Root {
    join_partitioning(rank, cfg, obs);
    let (books, early_summaries) = match topo.role_of(0) {
        Role::Master(_) => single_master(rank, store.num_ests(), cfg, topo, under_faults, obs),
        Role::Reconciler => {
            let (recon, early) =
                reconciler_rank(rank, store.num_ests(), cfg, topo, under_faults, obs);
            (Books::Reconciler(recon), early)
        }
        Role::Slave(_) => unreachable!("rank 0 is never a slave"),
    };
    Root {
        books,
        comm: rank.stats(),
        injected: rank.fault_stats(),
        early_summaries,
    }
}

/// Ranks `1..p`: a sub-master, whose output travels to rank 0 as
/// messages, or a slave, which returns its summary.
fn run_worker(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    cfg: &ClusterConfig,
    topo: Topology,
    under_faults: bool,
    obs: &Obs,
) -> Option<WorkerSummary> {
    match topo.role_of(rank.rank()) {
        Role::Master(shard) => {
            join_partitioning(rank, cfg, obs);
            submaster_rank(rank, store.num_ests(), cfg, topo, shard, under_faults, obs);
            None
        }
        Role::Slave(idx) => Some(slave_rank(rank, store, packed, cfg, topo, idx, obs)),
        Role::Reconciler => unreachable!("the reconciler is rank 0"),
    }
}

/// A rank with no input share (a master or the reconciler) joins the
/// partitioning collective with a zero contribution, then waits at the
/// barrier while the slaves build their forests.
fn join_partitioning(rank: &Rank<Msg>, cfg: &ClusterConfig, obs: &Obs) {
    let span = obs.span_on(metric::PHASE_PARTITIONING, rank.rank());
    let zeros = vec![0u64; num_buckets(cfg.window_w)];
    let _global_counts = rank.allreduce_sum(&zeros);
    span.finish();
    rank.barrier();
}

/// The paper's master at rank 0: the protocol loop over the flat
/// `CLUSTERS`, streaming a `merge` event for every union as it happens.
fn single_master(
    rank: &Rank<Msg>,
    num_ests: usize,
    cfg: &ClusterConfig,
    topo: Topology,
    under_faults: bool,
    obs: &Obs,
) -> (Books, Vec<(usize, WorkerSummary)>) {
    let mut master = Master::new(num_ests, topo.num_slaves(), cfg.clone());
    let mut merges_emitted = 0;
    let (busy_frac, early) = run_master(rank, topo, &mut master, cfg, under_faults, obs, |m, _| {
        emit_merges(obs, &m.core.trace.records()[merges_emitted..]);
        merges_emitted = m.core.trace.len();
    });
    let dead = (0..topo.num_slaves()).map(|s| master.is_dead(s)).collect();
    let (mut result, trace) = master.core.into_result();
    result.stats.master_busy_frac = busy_frac;
    (
        Books::Master {
            result,
            trace,
            dead,
        },
        early,
    )
}

/// The protocol loop every master runs — the single master at rank 0
/// and each sub-master alike: fold each report and dispatch its
/// successor, sweep deadlines, surface recovery actions as fault events
/// and progress as heartbeats, until the master has shut its slaves
/// down. `after_report` is the one step that differs between them; it
/// runs after every handled report with the count so far. Returns the
/// loop's busy fraction and any worker summaries that arrived during it
/// (socket backend: a slave can finish while the others are still being
/// shut down).
pub(crate) fn run_master<S: ClusterSets>(
    rank: &Rank<Msg>,
    topo: Topology,
    master: &mut Master<S>,
    cfg: &ClusterConfig,
    under_faults: bool,
    obs: &Obs,
    mut after_report: impl FnMut(&mut Master<S>, u64),
) -> (f64, Vec<(usize, WorkerSummary)>) {
    let me = rank.rank();
    let Role::Master(session) = topo.role_of(me) else {
        unreachable!("rank {me} is not a master")
    };
    // Fault-event details name the shard of a sharded world.
    let who = if topo.role_of(0) == Role::Reconciler {
        format!("shard {session}: ")
    } else {
        String::new()
    };
    master.begin(obs.now());
    // Wake at a quarter of the slave timeout so overdue batches are
    // noticed promptly without busy-spinning.
    let poll = Duration::from_secs_f64((cfg.slave_timeout / 4.0).clamp(0.001, 0.05));
    let send_replies = |replies: Vec<(usize, Msg)>| {
        for (slave, reply) in replies {
            // A dispatched batch opens a causal flow keyed on (session,
            // slave, seq); the slave's report closes it. Resends re-open
            // the same id, so the arrow tracks the delivery that worked.
            if let Msg::Work { seq, pairs, .. } = &reply {
                obs.trace_with(|tracer| {
                    let t = obs.now_us();
                    let id = topo.flow_id(session, slave, *seq);
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
            let to = topo.slave_rank(slave);
            for _ in 1..n {
                rank.send(to, reply.clone());
            }
            rank.send(to, reply);
        }
    };
    let loop_t0 = obs.now();
    let mut busy = Timer::new();
    let mut reports = 0u64;
    let mut hb_last_t = loop_t0;
    let mut hb_last_processed = 0u64;
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
                        let Role::Slave(slave) = topo.role_of(from) else {
                            unreachable!("report from non-slave rank {from}")
                        };
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
                                let id = topo.flow_id(session, slave, seq);
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

        if obs.events_enabled() || obs.trace_enabled() {
            for note in master.drain_fault_notes() {
                // Structural attribution: the slave the note is about and,
                // where the note concerns a specific batch, its protocol
                // sequence number.
                let (kind, seq, detail) = match note {
                    FaultNote::Resend { slave, seq, retry } => (
                        "resend",
                        Some(seq),
                        format!("{who}slave {slave} seq {seq} retry {retry}"),
                    ),
                    FaultNote::DeadSlave { slave, reassigned } => (
                        "dead_slave",
                        None,
                        format!("{who}slave {slave}, {reassigned} pairs reassigned"),
                    ),
                    FaultNote::DuplicateReport { slave, seq } => (
                        "duplicate_report",
                        Some(seq),
                        format!("{who}slave {slave} seq {seq}"),
                    ),
                    FaultNote::Abandoned { pairs } => (
                        "abandoned",
                        None,
                        format!("{who}{pairs} pairs, no live slaves"),
                    ),
                };
                obs.trace_with(|tracer| {
                    tracer.instant(me, tracer.intern(kind), obs.now_us(), seq.unwrap_or(0), 0);
                });
                obs.emit_with(|| Event::Fault {
                    t: obs.now(),
                    rank: me,
                    kind: kind.to_string(),
                    seq,
                    detail: detail.clone(),
                });
            }
        }
        if got_report {
            reports += 1;
            after_report(master, reports);
        }
        if obs.events_enabled() && got_report && reports.is_multiple_of(HEARTBEAT_EVERY) {
            let now = obs.now();
            let elapsed = (now - loop_t0).max(f64::EPSILON);
            let processed = master.core.stats.pairs_processed;
            let dt = (now - hb_last_t).max(f64::EPSILON);
            obs.emit(Event::Heartbeat {
                rank: me,
                t: now,
                busy_frac: busy.secs() / elapsed,
                pairs_per_sec: (processed - hb_last_processed) as f64 / dt,
                processed,
            });
            hb_last_t = now;
            hb_last_processed = processed;
        }
    }
    let loop_total = (obs.now() - loop_t0).max(f64::EPSILON);
    (busy.secs() / loop_total, early_summaries)
}

/// A slave rank: count its share of the suffixes, combine the counts,
/// build its buckets' subtrees, then run the slave loop (node sorting
/// happens inside).
fn slave_rank(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    cfg: &ClusterConfig,
    topo: Topology,
    slave_id: usize,
    obs: &Obs,
) -> WorkerSummary {
    let num_slaves = topo.num_slaves();

    // Phase 1: partitioning — count my share, combine, assign.
    let span = obs.span_on(metric::PHASE_PARTITIONING, rank.rank());
    let local = count_buckets_stride(store, cfg.window_w, slave_id, num_slaves);
    let global = rank.allreduce_sum(&local);
    let partition = assign_buckets(&global, num_slaves);
    let partitioning = span.finish();

    // Phase 2: build my buckets' subtrees.
    let span = obs.span_on(metric::PHASE_GST_CONSTRUCTION, rank.rank());
    let forest = build_forest_for_rank(store, &partition, slave_id);
    let gst_construction = span.finish();
    record_gst_stats(obs, &partition, &forest);
    rank.barrier();

    // Phases 3–4: the slave protocol.
    let summary = run_slave_obs(rank, topo, store, packed, &forest, cfg, obs);
    WorkerSummary {
        partitioning,
        gst_construction,
        ..summary
    }
}

/// Fold rank 0's books and the arrived worker summaries into one result.
fn fold(
    num_ests: usize,
    topo: Topology,
    root: Root,
    summaries: &[WorkerSummary],
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    let Root {
        books,
        comm,
        injected,
        ..
    } = root;
    match books {
        Books::Master {
            mut result, trace, ..
        } => {
            // Master-side `pairs_generated` counts pairs *received* in
            // reports; the tail replaces it with the generator totals,
            // the shortfall becoming `faults.lost_pairs`.
            fold_summaries(&mut result.stats, summaries, comm, injected, obs);
            (result, trace)
        }
        Books::Reconciler(recon) => {
            fold_sharded(num_ests, topo, recon, summaries, comm, injected, obs)
        }
    }
}

/// The fold tail both layouts share: credit the arrived worker summaries
/// to `stats` with exact pair-flow conservation, then publish rank 0's
/// communication counters, the injector counters (`injected` plus every
/// summary's) and the run's pair and fault counters.
pub(crate) fn fold_summaries(
    stats: &mut ClusterStats,
    summaries: &[WorkerSummary],
    comm: WorldStats,
    mut injected: FaultSnapshot,
    obs: &Obs,
) {
    let (mut generated, mut unconsumed, mut prefiltered, mut ws_reuses) = (0u64, 0u64, 0u64, 0u64);
    for s in summaries {
        generated += s.gen_emitted;
        unconsumed += s.unconsumed;
        prefiltered += s.prefiltered;
        ws_reuses += s.ws_reuses;
        // Per-process injector counters (zero on the thread backend,
        // whose counters are world-shared).
        injected.dropped += s.injected_drops;
        injected.delayed += s.injected_delays;
        injected.stalls += s.injected_stalls;
    }
    // Pairs the generators emitted that were neither resolved by a
    // master (processed or skipped) nor still buffered on a slave were
    // lost to injected faults: dropped in flight, held by a slave that
    // died, or owned by a written-off shard. Folding them into
    // `pairs_unconsumed` keeps `generated == processed + skipped +
    // unconsumed` exact under every schedule. Fault-free runs — and
    // drop/delay-only plans, whose every report is eventually delivered
    // via resend — have `lost == 0`, which the tests assert as the
    // non-tautological form of conservation.
    //
    // On the socket backend a crashed worker's summary never arrives,
    // so `generated` can undercount what the masters actually received;
    // the max() restores conservation by crediting the missing generator
    // with exactly the pairs the masters saw from it.
    let resolved = stats.pairs_processed + stats.pairs_skipped + unconsumed;
    let generated = generated.max(resolved);
    stats.faults.lost_pairs = generated - resolved;
    stats.pairs_generated = generated;
    stats.pairs_unconsumed = unconsumed + stats.faults.lost_pairs;
    stats.pairs_prefiltered = prefiltered;
    stats.messages = comm.messages;

    let reg = obs.registry();
    reg.add(metric::COMM_MESSAGES, comm.messages);
    reg.add(metric::COMM_BYTES, comm.bytes);
    reg.add(metric::COMM_BARRIERS, comm.barriers);
    reg.add(metric::COMM_REDUCTIONS, comm.reductions);
    reg.add(metric::FAULTS_INJECTED_DROPS, injected.dropped);
    reg.add(metric::FAULTS_INJECTED_DELAYS, injected.delayed);
    reg.add(metric::FAULTS_INJECTED_CRASHES, injected.crashes);
    reg.add(metric::FAULTS_INJECTED_STALLS, injected.stalls);
    // Every result a master folded in came off a slave's long-lived
    // workspace, so this equals `pairs.processed` by construction.
    reg.add(metric::ALIGN_WS_REUSES, ws_reuses);
    record_cluster_counters(obs, stats);
    obs.flush();
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
        let (r, trace) = cluster_parallel_traced(&store, &small_cfg(), 3);
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
    fn events_stream_heartbeats_and_merges() {
        let ds = dataset(100, 29);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let sink = pace_obs::VecSink::shared();
        let obs = Obs::with_sink(Box::new(sink.clone()));
        let (r, trace) = cluster_parallel_obs(&store, &small_cfg(), 3, &obs);
        let events = sink.snapshot();
        let merges: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Merge { est_a, est_b, .. } => Some((*est_a, *est_b)),
                _ => None,
            })
            .collect();
        assert_eq!(merges.len() as u64, r.stats.merges);
        let traced: Vec<_> = trace.records().iter().map(|m| (m.est_a, m.est_b)).collect();
        assert_eq!(merges, traced, "merge events must mirror the trace order");
        // Phase spans from every rank are present and well-formed.
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::PhaseStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, Event::PhaseEnd { .. }))
            .count();
        assert_eq!(starts, ends);
        assert!(starts >= 4, "expected at least one span per rank");
        for e in &events {
            if let Event::Heartbeat { busy_frac, .. } = e {
                assert!((0.0..=1.0).contains(busy_frac));
            }
        }
    }
}
