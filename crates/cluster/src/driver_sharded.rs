//! Sharded parallel driver: `K` clustering sub-masters under one
//! reconciler.
//!
//! The single-master driver funnels every accepted pair and every union
//! through rank 0, so merge serialization and `comm.messages` cap
//! throughput no matter how many slaves are added. This driver splits
//! the master by EST id-range into `K` sub-masters (ranks `1..=K`),
//! each owning a [`ShardDsu`] view of `CLUSTERS` and running the
//! *unchanged* master protocol machine over the slaves for the pairs it
//! owns. A pair belongs to the shard owning its smaller EST id, so
//! every pair has exactly one coordinator and the per-shard `WORKBUF`s
//! partition the single master's queue.
//!
//! Unions whose endpoints straddle shard boundaries cannot be resolved
//! locally; they are logged as cross edges and flushed to the
//! reconciler (rank 0) as [`Msg::CrossMerge`] messages at epoch
//! barriers (every `shard_epoch` handled reports). The reconciler folds
//! them into a running global DSU for observability, but the *final*
//! partition is rebuilt by replaying each shard's authoritative merge
//! records ([`Msg::ShardDone`]) in shard order through a fresh DSU,
//! keeping only the records whose union still merged something. That
//! filtered replay is what makes the output deterministic (independent
//! of `CrossMerge` arrival timing) and is why a lost `CrossMerge` is
//! harmless: the records subsume every edge.
//!
//! Correctness rests on the same argument as the single master: a
//! pair's accept decision is a pure function of the pair, and a pair is
//! only ever *skipped* when some DSU view proves its ESTs already
//! connected by performed merges. `ShardDsu::same` answers `false` for
//! any cross-shard pair — a sound under-approximation — so no pair is
//! skipped wrongly, and the final partition equals the connected
//! components of the accepted-pair graph regardless of sharding. The
//! differential harness (`tests/sharded_identity.rs`) pins this down
//! against the single-master driver seed by seed.

use crate::cluster_core::emit_merges;
use crate::config::{ClusterConfig, ShardRole, ShardTopology};
use crate::driver_par::record_worker_phases;
use crate::driver_seq::{cluster_sequential_obs, record_cluster_counters, record_gst_stats};
use crate::master::{FaultNote, Master};
use crate::messages::{Msg, ShardReport, WorkerSummary};
use crate::slave_sharded::run_slave_sharded_obs;
use crate::stats::{ClusterResult, ClusterStats};
use crate::trace::{MergeRecord, MergeTrace};
use pace_dsu::{DisjointSets, ShardDsu, ShardSpec};
use pace_gst::{assign_buckets, build_forest_for_rank, count_buckets_stride, num_buckets};
use pace_mpisim::{run_world_obs, FaultPlan, FaultSnapshot, Rank, WorldStats};
use pace_obs::trace::{flow_id, T_DISPATCH, T_HANDLE_REPORT};
use pace_obs::{metric, Event, Obs, Timer, TraceKind};
use pace_seq::{PackedText, SequenceStore};
use std::time::{Duration, Instant};

/// Emit a sub-master heartbeat every this many handled reports.
const HEARTBEAT_EVERY: u64 = 32;

/// Copies of unacknowledged control messages (`Shutdown`, `ShardDone`)
/// sent when a fault plan is active — bounded redundancy versus the
/// bounded per-channel drop rules, exactly as in the single-master
/// driver.
const CONTROL_REDUNDANCY: usize = 3;

/// What the reconciler rank hands to the fold.
struct ReconcilerOut {
    /// Final report per shard (`None` = the shard never delivered one:
    /// crashed, or written off at the progress deadline).
    shard_reports: Vec<Option<ShardReport>>,
    /// Cross edges received via incremental `CrossMerge` flushes.
    cross_received: u64,
    /// `CrossMerge` flushes received.
    cross_flushes: u64,
    /// Seconds rank 0 spent folding cross edges.
    reconcile_secs: f64,
    comm: WorldStats,
    injected: FaultSnapshot,
    /// Worker summaries that arrived during the protocol (socket
    /// backend; empty on the thread backend).
    early_summaries: Vec<(usize, WorkerSummary)>,
}

/// Per-rank output of the thread-backend world.
#[allow(clippy::large_enum_variant)]
enum ShardOut {
    Reconciler(Box<ReconcilerOut>),
    /// Everything a sub-master produces travels to rank 0 as messages.
    SubMaster,
    Slave {
        summary: WorkerSummary,
    },
}

/// Cluster with `K = cfg.shards` sub-masters over `p` ranks (1
/// reconciler + K sub-masters + `p − K − 1` slaves). `p ≤ 1` falls back
/// to the sequential driver (sharding needs a world).
pub fn cluster_sharded_obs(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cluster_sharded_faults(store, cfg, p, &FaultPlan::none(), obs)
}

/// [`cluster_sharded_obs`] under a deterministic fault plan. Sub-master
/// ranks may be crash targets: the reconciler's progress deadline
/// writes a silent shard off, releases the slaves with a global abort,
/// and accounts the shard's pairs in `faults.lost_pairs` — loud
/// failure, never silent divergence.
pub fn cluster_sharded_faults(
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
    let topo = ShardTopology::new(p, cfg.shards).expect("invalid sharded topology");
    let spec = ShardSpec::new(store.num_ests(), topo.shards);
    let total_span = obs.span(metric::PHASE_TOTAL);

    let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
    let packed_ref = packed.as_ref();

    let under_faults = !plan.is_empty();
    let outputs = run_world_obs(p, plan, obs, |rank| match topo.role_of(rank.rank()) {
        ShardRole::Reconciler => ShardOut::Reconciler(Box::new(reconciler_rank(
            &rank,
            store,
            cfg,
            topo,
            under_faults,
            obs,
        ))),
        ShardRole::SubMaster(s) => {
            submaster_rank(&rank, cfg, topo, spec, s, under_faults, obs);
            ShardOut::SubMaster
        }
        ShardRole::Slave(_) => slave_rank(&rank, store, packed_ref, cfg, topo, spec, obs),
    });

    let mut recon = None;
    let mut summaries = Vec::new();
    for out in outputs {
        match out {
            ShardOut::Reconciler(r) => recon = Some(*r),
            ShardOut::SubMaster => {}
            ShardOut::Slave { summary } => summaries.push(summary),
        }
    }
    let recon = recon.expect("rank 0 always yields the reconciler output");
    total_span.finish();
    fold_sharded(store.num_ests(), topo, recon, summaries, obs)
}

/// Run rank 0 (the reconciler) over a transport-backed rank — the
/// multi-process entry point, the sharded analogue of
/// [`cluster_master_transport`](crate::cluster_master_transport).
/// Worker summaries are collected within a bounded window after the
/// shards finish; missing ones are tolerated by the fold.
pub fn cluster_sharded_master_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    assert_eq!(rank.rank(), 0, "the reconciler must run on rank 0");
    let topo = ShardTopology::new(rank.size(), cfg.shards).expect("invalid sharded topology");
    let total_span = obs.span(metric::PHASE_TOTAL);

    let mut recon = reconciler_rank(rank, store, cfg, topo, under_faults, obs);

    // Collect the slaves' final summaries (sub-masters report through
    // `ShardDone` instead). Bounded window: crashed workers never send.
    let num_slaves = topo.num_slaves();
    let mut summaries: Vec<Option<WorkerSummary>> = vec![None; num_slaves];
    let mut received = 0usize;
    for (from, s) in recon.early_summaries.drain(..) {
        if let Some(slot) = slave_slot(topo, from, &mut summaries) {
            if slot.is_none() {
                *slot = Some(s);
                received += 1;
            }
        }
    }
    let window = (cfg.slave_timeout * (f64::from(cfg.max_retries) + 1.0)).clamp(1.0, 10.0);
    let deadline = Instant::now() + Duration::from_secs_f64(window);
    while received < num_slaves {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let poll = (deadline - now).min(Duration::from_millis(50));
        match rank.recv_timeout(poll) {
            Ok(Some((from, Msg::Summary(s)))) => {
                if let Some(slot) = slave_slot(topo, from, &mut summaries) {
                    if slot.is_none() {
                        *slot = Some(s);
                        received += 1;
                    }
                }
            }
            // Duplicate ShardDones from redundancy, stray flushes: ignore.
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }

    let mut arrived = Vec::with_capacity(num_slaves);
    for (idx, summary) in summaries.into_iter().enumerate() {
        if let Some(summary) = summary {
            record_worker_phases(obs, topo.slave_rank(idx), &summary);
            arrived.push(summary);
        }
    }
    total_span.finish();
    fold_sharded(store.num_ests(), topo, recon, arrived, obs)
}

fn slave_slot(
    topo: ShardTopology,
    from: usize,
    summaries: &mut [Option<WorkerSummary>],
) -> Option<&mut Option<WorkerSummary>> {
    match topo.role_of(from) {
        ShardRole::Slave(idx) => summaries.get_mut(idx),
        _ => None,
    }
}

/// Run one worker rank (sub-master or slave, by position) over a
/// transport-backed rank. Returns whether this rank crashed, which the
/// worker process turns into its
/// [`pace_mpisim::INJECTED_CRASH_EXIT`] status.
pub fn cluster_sharded_worker_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> bool {
    cfg.validate().expect("invalid cluster config");
    let topo = ShardTopology::new(rank.size(), cfg.shards).expect("invalid sharded topology");
    let spec = ShardSpec::new(store.num_ests(), topo.shards);
    match topo.role_of(rank.rank()) {
        ShardRole::Reconciler => unreachable!("rank 0 is the launcher's in-process reconciler"),
        ShardRole::SubMaster(s) => {
            submaster_rank(rank, cfg, topo, spec, s, under_faults, obs);
        }
        ShardRole::Slave(_) => {
            let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
            let out = slave_rank(rank, store, packed.as_ref(), cfg, topo, spec, obs);
            let ShardOut::Slave { mut summary } = out else {
                unreachable!()
            };
            let injected = rank.fault_stats();
            summary.injected_drops = injected.dropped;
            summary.injected_delays = injected.delayed;
            summary.injected_stalls = injected.stalls;
            if !rank.crashed() {
                let copies = if under_faults { CONTROL_REDUNDANCY } else { 1 };
                for _ in 0..copies {
                    rank.send(0, Msg::Summary(summary.clone()));
                }
            }
        }
    }
    obs.flush();
    rank.crashed()
}

/// Rank 0: participate in the collectives, then collect `CrossMerge`
/// flushes (folding them into a running global DSU) and the shards'
/// final `ShardDone` reports. Under faults a progress deadline — reset
/// by every received message — writes silent shards off and releases
/// the slaves with a global abort `Shutdown`, so a crashed sub-master
/// can never hang the world.
fn reconciler_rank(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    cfg: &ClusterConfig,
    topo: ShardTopology,
    under_faults: bool,
    obs: &Obs,
) -> ReconcilerOut {
    let span = obs.span_on(metric::PHASE_PARTITIONING, 0);
    let zeros = vec![0u64; num_buckets(cfg.window_w)];
    let _ = rank.allreduce_sum(&zeros);
    span.finish();
    rank.barrier();

    let k = topo.shards;
    let mut incremental = DisjointSets::new(store.num_ests());
    let mut shard_reports: Vec<Option<ShardReport>> = vec![None; k];
    let mut failed = vec![false; k];
    let mut early_summaries = Vec::new();
    let mut cross_received = 0u64;
    let mut cross_flushes = 0u64;
    let mut reconcile = Timer::new();
    let poll = Duration::from_secs_f64((cfg.slave_timeout / 4.0).clamp(0.001, 0.05));
    // Progress window: generous enough that a live sub-master always
    // gets a flush or a ShardDone out before it expires (sub-masters
    // send epoch flushes as heartbeats), tight enough that a crashed
    // one is written off in bounded time.
    let window = Duration::from_secs_f64(
        (cfg.slave_timeout * (f64::from(cfg.max_retries) + 2.0) * 2.0).clamp(1.0, 60.0),
    );
    let mut quiet_since = Instant::now();

    let outstanding = |reports: &[Option<ShardReport>], failed: &[bool]| -> usize {
        reports
            .iter()
            .zip(failed)
            .filter(|(r, f)| r.is_none() && !**f)
            .count()
    };

    while outstanding(&shard_reports, &failed) > 0 {
        match rank.recv_timeout(poll) {
            Ok(Some((from, msg))) => {
                quiet_since = Instant::now();
                match msg {
                    Msg::CrossMerge {
                        shard,
                        epoch: _,
                        edges,
                    } => {
                        reconcile.start();
                        cross_flushes += 1;
                        cross_received += edges.len() as u64;
                        for (a, b) in edges {
                            incremental.union(a as usize, b as usize);
                        }
                        reconcile.stop();
                        debug_assert!((shard as usize) < k);
                    }
                    Msg::ShardDone { shard, report } => {
                        let s = shard as usize;
                        if s < k && shard_reports[s].is_none() && !failed[s] {
                            shard_reports[s] = Some(report);
                        }
                    }
                    Msg::Summary(s) => early_summaries.push((from, s)),
                    // Nothing else is addressed to rank 0.
                    _ => {}
                }
            }
            Ok(None) => {
                if under_faults && quiet_since.elapsed() >= window {
                    write_off_silent_shards(rank, topo, &shard_reports, &mut failed, obs);
                }
            }
            Err(_) => {
                // World torn down: whatever has not arrived never will.
                for (s, rep) in shard_reports.iter().enumerate() {
                    if rep.is_none() {
                        failed[s] = true;
                    }
                }
            }
        }
    }

    ReconcilerOut {
        shard_reports,
        cross_received,
        cross_flushes,
        reconcile_secs: reconcile.secs(),
        comm: rank.stats(),
        injected: rank.fault_stats(),
        early_summaries,
    }
}

/// Declare every shard that has not delivered its report failed, emit a
/// fault event per shard, and release the slaves: a `Shutdown` from
/// rank 0 is the global abort that closes every session a dead
/// sub-master can no longer close itself.
fn write_off_silent_shards(
    rank: &Rank<Msg>,
    topo: ShardTopology,
    shard_reports: &[Option<ShardReport>],
    failed: &mut [bool],
    obs: &Obs,
) {
    let mut newly_failed = false;
    for (s, rep) in shard_reports.iter().enumerate() {
        if rep.is_none() && !failed[s] {
            failed[s] = true;
            newly_failed = true;
            obs.emit_with(|| Event::Fault {
                t: obs.now(),
                rank: 0,
                kind: "shard_failed".into(),
                seq: None,
                detail: format!(
                    "shard {s} (rank {}) silent past the progress window",
                    topo.submaster_rank(s)
                ),
            });
        }
    }
    if newly_failed {
        for idx in 0..topo.num_slaves() {
            for _ in 0..CONTROL_REDUNDANCY {
                rank.send(topo.slave_rank(idx), Msg::Shutdown);
            }
        }
    }
}

/// Rank `1 + shard`: the unchanged master protocol machine over a
/// [`ShardDsu`] id-range view, plus the epoch-barrier cross-edge flush
/// and the final `ShardDone` report to the reconciler.
#[allow(clippy::too_many_arguments)]
fn submaster_rank(
    rank: &Rank<Msg>,
    cfg: &ClusterConfig,
    topo: ShardTopology,
    spec: ShardSpec,
    shard: usize,
    under_faults: bool,
    obs: &Obs,
) {
    let me = rank.rank();
    let span = obs.span_on(metric::PHASE_PARTITIONING, me);
    let zeros = vec![0u64; num_buckets(cfg.window_w)];
    let _ = rank.allreduce_sum(&zeros);
    span.finish();
    rank.barrier();

    let num_slaves = topo.num_slaves();
    let mut master: Master<ShardDsu> =
        Master::with_sets(ShardDsu::new(spec, shard), num_slaves, cfg.clone());
    master.begin(obs.now());
    let poll = Duration::from_secs_f64((cfg.slave_timeout / 4.0).clamp(0.001, 0.05));
    let send_replies = |replies: Vec<(usize, Msg)>| {
        for (slave, reply) in replies {
            if let Msg::Work { seq, pairs, .. } = &reply {
                obs.trace_with(|tracer| {
                    let t = obs.now_us();
                    let id = flow_id(shard * num_slaves + slave, *seq);
                    tracer.flow(TraceKind::FlowStart, me, t, id);
                    tracer.instant(me, T_DISPATCH, t, id, pairs.len() as u64);
                });
            }
            let copies = match (&reply, under_faults) {
                (Msg::Shutdown, true) => CONTROL_REDUNDANCY,
                _ => 1,
            };
            let to = topo.slave_rank(slave);
            for _ in 1..copies {
                rank.send(to, reply.clone());
            }
            rank.send(to, reply);
        }
    };

    let loop_t0 = obs.now();
    let mut busy = Timer::new();
    let mut reports = 0u64;
    let mut epoch = 0u64;
    let mut hb_last_t = loop_t0;
    let mut hb_last_processed = 0u64;
    while !master.is_done() {
        let mut got_report = false;
        match rank.recv_timeout(poll) {
            Ok(Some((from, msg))) => {
                busy.start();
                // Anything other than a report (e.g. a redundant abort
                // copy) is a stray message: ignore.
                if let Msg::Report {
                    seq,
                    results,
                    pairs,
                    exhausted,
                } = msg
                {
                    debug_assert!(from > topo.shards, "report from non-slave rank {from}");
                    let slave = from - topo.shards - 1;
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
                            let id = flow_id(shard * num_slaves + slave, seq);
                            tracer.span(me, T_HANDLE_REPORT, t0, end.saturating_sub(t0), id, seq);
                            tracer.flow(TraceKind::FlowEnd, me, t0, id);
                        });
                    }
                }
                busy.stop();
            }
            Ok(None) => {}
            Err(_) => master.handle_world_down(),
        }
        if !master.is_done() {
            busy.start();
            send_replies(master.tick(obs.now()));
            busy.stop();
        }

        // Epoch barrier: flush pending cross edges. Sent even when
        // empty — under faults the flush doubles as a liveness signal
        // for the reconciler's progress window.
        if got_report {
            reports += 1;
            if reports.is_multiple_of(cfg.shard_epoch as u64) {
                epoch += 1;
                let edges = master.core.sets.drain_cross_edges();
                rank.send(
                    0,
                    Msg::CrossMerge {
                        shard: shard as u32,
                        epoch,
                        edges,
                    },
                );
            }
        }

        if obs.events_enabled() || obs.trace_enabled() {
            for note in master.drain_fault_notes() {
                let (kind, seq, detail) = match note {
                    FaultNote::Resend { slave, seq, retry } => (
                        "resend",
                        Some(seq),
                        format!("shard {shard} slave {slave} seq {seq} retry {retry}"),
                    ),
                    FaultNote::DeadSlave { slave, reassigned } => (
                        "dead_slave",
                        None,
                        format!("shard {shard} slave {slave}, {reassigned} pairs reassigned"),
                    ),
                    FaultNote::DuplicateReport { slave, seq } => (
                        "duplicate_report",
                        Some(seq),
                        format!("shard {shard} slave {slave} seq {seq}"),
                    ),
                    FaultNote::Abandoned { pairs } => (
                        "abandoned",
                        None,
                        format!("shard {shard}: {pairs} pairs, no live slaves"),
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

    // Final flush + the authoritative shard report.
    epoch += 1;
    let edges = master.core.sets.drain_cross_edges();
    rank.send(
        0,
        Msg::CrossMerge {
            shard: shard as u32,
            epoch,
            edges,
        },
    );
    let stats = master.core.stats;
    let records = master.core.trace.records().to_vec();
    let cross_edges = master.core.sets.cross_edges().total_unique() as u64;
    let report = ShardReport {
        records,
        pairs_received: stats.pairs_generated,
        pairs_processed: stats.pairs_processed,
        pairs_accepted: stats.pairs_accepted,
        pairs_skipped: stats.pairs_skipped,
        merges: stats.merges,
        cross_edges,
        epochs: epoch,
        retries: stats.faults.retries,
        duplicate_reports: stats.faults.duplicate_reports,
        dead_slaves: stats.faults.dead_slaves,
        reassigned_pairs: stats.faults.reassigned_pairs,
        abandoned_pairs: stats.faults.abandoned_pairs,
        injected_drops: rank.fault_stats().dropped,
        injected_delays: rank.fault_stats().delayed,
        injected_stalls: rank.fault_stats().stalls,
        busy_frac: busy.secs() / loop_total,
    };
    let copies = if under_faults { CONTROL_REDUNDANCY } else { 1 };
    for _ in 0..copies {
        rank.send(
            0,
            Msg::ShardDone {
                shard: shard as u32,
                report: report.clone(),
            },
        );
    }
}

/// A slave rank: the usual partition/build phases (with `num_slaves`
/// counted against the sharded topology), then the K-session slave loop.
fn slave_rank(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    cfg: &ClusterConfig,
    topo: ShardTopology,
    spec: ShardSpec,
    obs: &Obs,
) -> ShardOut {
    let ShardRole::Slave(slave_id) = topo.role_of(rank.rank()) else {
        unreachable!()
    };
    let num_slaves = topo.num_slaves();

    let span = obs.span_on(metric::PHASE_PARTITIONING, rank.rank());
    let local = count_buckets_stride(store, cfg.window_w, slave_id, num_slaves);
    let global = rank.allreduce_sum(&local);
    let partition = assign_buckets(&global, num_slaves);
    let partitioning = span.finish();

    let span = obs.span_on(metric::PHASE_GST_CONSTRUCTION, rank.rank());
    let forest = build_forest_for_rank(store, &partition, slave_id);
    let gst_construction = span.finish();
    record_gst_stats(obs, &partition, &forest);
    rank.barrier();

    let summary = run_slave_sharded_obs(rank, topo, spec, store, packed, &forest, cfg, obs);
    ShardOut::Slave {
        summary: WorkerSummary {
            partitioning,
            gst_construction,
            ..summary
        },
    }
}

/// Fold the reconciler's collected state and the slave summaries into
/// the final result: replay each shard's merge records in shard order
/// through a fresh DSU, keeping only effective merges, so
/// `trace.len() == stats.merges` and `trace.replay(n)` reproduces the
/// labels exactly — the same invariants the single-master driver holds.
fn fold_sharded(
    num_ests: usize,
    topo: ShardTopology,
    recon: ReconcilerOut,
    summaries: Vec<WorkerSummary>,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    let reg = obs.registry();
    let mut replay_timer = Timer::new();
    replay_timer.start();
    let mut dsu = DisjointSets::new(num_ests);
    let mut kept: Vec<MergeRecord> = Vec::new();
    for rep in recon.shard_reports.iter().flatten() {
        for r in &rep.records {
            if dsu.union(r.est_a, r.est_b) {
                kept.push(*r);
            }
        }
    }
    emit_merges(obs, &kept);
    let reconcile_secs = recon.reconcile_secs + replay_timer.stop();

    let mut stats = ClusterStats::default();
    let mut failed_shards = 0u64;
    let mut worker_injected = FaultSnapshot::default();
    for (s, rep) in recon.shard_reports.iter().enumerate() {
        match rep {
            Some(rep) => {
                worker_injected.dropped += rep.injected_drops;
                worker_injected.delayed += rep.injected_delays;
                worker_injected.stalls += rep.injected_stalls;
                stats.pairs_processed += rep.pairs_processed;
                stats.pairs_accepted += rep.pairs_accepted;
                stats.pairs_skipped += rep.pairs_skipped;
                stats.faults.retries += rep.retries;
                stats.faults.duplicate_reports += rep.duplicate_reports;
                stats.faults.dead_slaves += rep.dead_slaves;
                stats.faults.reassigned_pairs += rep.reassigned_pairs;
                stats.faults.abandoned_pairs += rep.abandoned_pairs;
                stats.master_busy_frac = stats.master_busy_frac.max(rep.busy_frac);
                reg.set_gauge(
                    &metric::shard_gauge_name(s, "received"),
                    rep.pairs_received as f64,
                );
                reg.set_gauge(
                    &metric::shard_gauge_name(s, "processed"),
                    rep.pairs_processed as f64,
                );
                reg.set_gauge(
                    &metric::shard_gauge_name(s, "skipped"),
                    rep.pairs_skipped as f64,
                );
                reg.set_gauge(&metric::shard_gauge_name(s, "merges"), rep.merges as f64);
                reg.set_gauge(
                    &metric::shard_gauge_name(s, "cross_edges"),
                    rep.cross_edges as f64,
                );
            }
            None => failed_shards += 1,
        }
    }
    stats.merges = kept.len() as u64;
    stats.messages = recon.comm.messages;

    reg.set_gauge(metric::SHARD_COUNT, topo.shards as f64);
    reg.set_gauge(metric::SHARD_RECONCILE_SECS, reconcile_secs);
    reg.add(metric::SHARD_CROSS_EDGES, recon.cross_received);
    reg.add(metric::SHARD_EPOCHS, recon.cross_flushes);
    reg.add(metric::SHARD_FAILED, failed_shards);
    reg.add(metric::COMM_MESSAGES, recon.comm.messages);
    reg.add(metric::COMM_BYTES, recon.comm.bytes);
    reg.add(metric::COMM_BARRIERS, recon.comm.barriers);
    reg.add(metric::COMM_REDUCTIONS, recon.comm.reductions);
    reg.add(metric::FAULTS_INJECTED_DROPS, recon.injected.dropped);
    reg.add(metric::FAULTS_INJECTED_DELAYS, recon.injected.delayed);
    reg.add(metric::FAULTS_INJECTED_CRASHES, recon.injected.crashes);
    reg.add(metric::FAULTS_INJECTED_STALLS, recon.injected.stalls);

    let mut generated_total = 0u64;
    let mut unconsumed_total = 0u64;
    let mut prefiltered_total = 0u64;
    let mut ws_reuses_total = 0u64;
    let mut gen_by_owner = vec![0u64; topo.shards];
    let mut unconsumed_by_owner = vec![0u64; topo.shards];
    for summary in &summaries {
        generated_total += summary.gen_emitted;
        unconsumed_total += summary.unconsumed;
        prefiltered_total += summary.prefiltered;
        ws_reuses_total += summary.ws_reuses;
        for (m, v) in summary.gen_by_owner.iter().enumerate().take(topo.shards) {
            gen_by_owner[m] += v;
        }
        for (m, v) in summary
            .unconsumed_by_owner
            .iter()
            .enumerate()
            .take(topo.shards)
        {
            unconsumed_by_owner[m] += v;
        }
        worker_injected.dropped += summary.injected_drops;
        worker_injected.delayed += summary.injected_delays;
        worker_injected.stalls += summary.injected_stalls;
    }
    // Same conservation law as the single-master fold: anything the
    // generators emitted that no shard resolved and no slave still
    // buffers was lost to faults (a dropped message, a dead slave, or a
    // whole written-off shard). The max() credits generators whose
    // summaries went missing with exactly what the shards received.
    let generated_total =
        generated_total.max(stats.pairs_processed + stats.pairs_skipped + unconsumed_total);
    let lost = generated_total
        .saturating_sub(stats.pairs_processed + stats.pairs_skipped + unconsumed_total);
    stats.faults.lost_pairs = lost;
    stats.pairs_generated = generated_total;
    stats.pairs_unconsumed = unconsumed_total + lost;
    stats.pairs_prefiltered = prefiltered_total;

    for m in 0..topo.shards {
        reg.set_gauge(
            &metric::shard_gauge_name(m, "generated"),
            gen_by_owner[m] as f64,
        );
        reg.set_gauge(
            &metric::shard_gauge_name(m, "unconsumed"),
            unconsumed_by_owner[m] as f64,
        );
    }
    reg.add(metric::FAULTS_INJECTED_DROPS, worker_injected.dropped);
    reg.add(metric::FAULTS_INJECTED_DELAYS, worker_injected.delayed);
    reg.add(metric::FAULTS_INJECTED_STALLS, worker_injected.stalls);
    reg.add(metric::ALIGN_WS_REUSES, ws_reuses_total);
    record_cluster_counters(obs, &stats);
    obs.flush();

    let labels = dsu.labels();
    (
        ClusterResult {
            num_clusters: dsu.num_sets(),
            labels,
            stats,
        },
        MergeTrace::from_records(kept),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver_par::cluster_parallel_traced;
    use pace_simulate::{generate, SimConfig};

    fn small_cfg(shards: usize) -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c.batchsize = 8;
        c.shards = shards;
        c.shard_epoch = 4;
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

    /// Canonical partition: each EST labelled by the smallest EST id in
    /// its cluster, so two runs agree iff their partitions are equal.
    fn canon(labels: &[usize]) -> Vec<usize> {
        let mut rep = std::collections::HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            rep.entry(l).or_insert(i);
        }
        labels.iter().map(|l| rep[l]).collect()
    }

    #[test]
    fn sharded_matches_single_master_partition() {
        let ds = dataset(80, 41);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (single, _) = cluster_parallel_traced(&store, &small_cfg(0), 4);
        for k in [1usize, 2, 3] {
            let (sharded, trace) = cluster_sharded_obs(&store, &small_cfg(k), 4 + k, &Obs::noop());
            assert_eq!(
                canon(&sharded.labels),
                canon(&single.labels),
                "K={k} diverged from the single master"
            );
            assert_eq!(trace.len() as u64, sharded.stats.merges);
            assert_eq!(canon(&trace.replay(80)), canon(&sharded.labels));
        }
    }

    #[test]
    fn sharded_stats_conserve_flow() {
        let ds = dataset(80, 42);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (r, _) = cluster_sharded_obs(&store, &small_cfg(2), 6, &Obs::noop());
        let s = &r.stats;
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        );
        assert_eq!(s.faults.lost_pairs, 0);
        assert!(s.pairs_accepted <= s.pairs_processed);
        assert!(s.merges <= s.pairs_accepted);
    }

    #[test]
    fn sharded_registry_reports_per_shard_conservation() {
        let ds = dataset(80, 43);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::noop();
        let (r, _) = cluster_sharded_obs(&store, &small_cfg(2), 6, &obs);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.gauges[metric::SHARD_COUNT], 2.0);
        let mut gen_total = 0.0;
        for s in 0..2 {
            let gen = snap.gauges[&metric::shard_gauge_name(s, "generated")];
            let proc = snap.gauges[&metric::shard_gauge_name(s, "processed")];
            let skip = snap.gauges[&metric::shard_gauge_name(s, "skipped")];
            let uncons = snap.gauges[&metric::shard_gauge_name(s, "unconsumed")];
            let rec = snap.gauges[&metric::shard_gauge_name(s, "received")];
            assert_eq!(gen, proc + skip + uncons, "shard {s} leaked pairs");
            assert!(rec <= proc + skip, "shard {s}: received pairs unresolved");
            gen_total += gen;
        }
        assert_eq!(gen_total as u64, r.stats.pairs_generated);
    }

    #[test]
    fn sharded_p1_falls_back_to_sequential() {
        let ds = dataset(30, 44);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (a, _) = cluster_sharded_obs(&store, &small_cfg(2), 1, &Obs::noop());
        let b = crate::driver_seq::cluster_sequential(&store, &small_cfg(2));
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn crashed_submaster_fails_loudly() {
        let ds = dataset(60, 45);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let mut cfg = small_cfg(2);
        cfg.slave_timeout = 0.2;
        cfg.max_retries = 2;
        // Rank 1 (shard 0) dies after a handful of sends.
        let plan = FaultPlan::none().crash(1, 5);
        let (r, _) = cluster_sharded_faults(&store, &cfg, 6, &plan, &Obs::noop());
        assert_eq!(
            r.stats.pairs_generated,
            r.stats.pairs_processed + r.stats.pairs_skipped + r.stats.pairs_unconsumed,
            "conservation must hold even with a dead shard"
        );
        assert!(
            r.stats.faults.lost_pairs > 0,
            "a crashed sub-master must surface as lost pairs"
        );
    }
}
