//! Parallel driver: the full master–slave protocol over `p` ranks.
//!
//! Rank 0 is the master; ranks `1..p` are slaves. The phases mirror the
//! paper's system: (1) each slave counts its share of the suffixes per
//! bucket and the counts are combined with the parallel-summation
//! collective; (2) buckets are assigned deterministically and each slave
//! builds the subtrees it owns; (3) the clustering protocol runs until
//! the master issues shutdowns. Phase times are per-rank registry
//! samples; each phase's max over ranks is its critical-path time, as in
//! Table 3.
//!
//! Instrumentation mirrors the sequential driver: every rank records its
//! phases into the shared `pace-obs` registry (over the socket transport
//! the master records them from each worker's summary), communication
//! counters are absorbed from `pace-mpisim`, the master emits periodic
//! heartbeats (its busy fraction is the paper's "< 2%" claim) and a
//! `merge` event for every union it performs.

use crate::cluster_core::emit_merges;
use crate::config::ClusterConfig;
use crate::driver_seq::{cluster_sequential_obs, record_cluster_counters, record_gst_stats};
use crate::master::FaultNote;
use crate::master::Master;
use crate::messages::{Msg, WorkerSummary};
use crate::slave::run_slave_obs;
use crate::stats::{ClusterResult, ClusterStats};
use crate::trace::MergeTrace;
use pace_gst::{assign_buckets, build_forest_for_rank, count_buckets_stride, num_buckets};
use pace_mpisim::{run_world_obs, FaultPlan, FaultSnapshot, Rank, WorldStats};
use pace_obs::trace::{flow_id, T_DISPATCH, T_HANDLE_REPORT};
use pace_obs::{metric, Event, Obs, Timer, TraceKind};
use pace_seq::{PackedText, SequenceStore};
use std::time::{Duration, Instant};

/// Emit a master heartbeat every this many handled reports.
const HEARTBEAT_EVERY: u64 = 32;

/// Copies of each `Shutdown` sent when a fault plan is active. Shutdown
/// has no acknowledgement, so bounded redundancy (three distinct
/// transport sequence numbers) is what guarantees delivery past the
/// bounded per-channel drop rules of seeded plans
/// (`pace_mpisim::MAX_SEEDED_DROPS_PER_CHANNEL`).
const SHUTDOWN_REDUNDANCY: usize = 3;

/// Per-rank results collected when the world joins (thread backend) or
/// received as [`Msg::Summary`] messages (socket backend).
// One value per rank, moved exactly once at world teardown — the
// Master/Slave size gap never sits in a hot collection.
#[allow(clippy::large_enum_variant)]
enum RankOutput {
    Master {
        labels: Vec<usize>,
        num_clusters: usize,
        stats: ClusterStats,
        trace: MergeTrace,
        busy_frac: f64,
        comm: WorldStats,
        injected: FaultSnapshot,
        /// Which slaves the master declared dead — the fold and the
        /// summary-collection window must not wait on these.
        dead: Vec<bool>,
        /// Worker summaries that arrived while shutdowns were still
        /// being dispatched (socket backend only; empty on threads).
        early_summaries: Vec<(usize, WorkerSummary)>,
    },
    Slave {
        summary: WorkerSummary,
    },
}

/// Record a worker's phase seconds, as its summary carries them, into
/// `obs` on the worker's rank. Only a master in another process does
/// this: over the channel backend the slaves already wrote the shared
/// registry themselves.
pub(crate) fn record_worker_phases(obs: &Obs, rank: usize, s: &WorkerSummary) {
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

/// Cluster with `p` ranks (1 master + `p − 1` slaves). `p ≤ 1` falls back
/// to the sequential driver.
pub fn cluster_parallel(store: &SequenceStore, cfg: &ClusterConfig, p: usize) -> ClusterResult {
    cluster_parallel_obs(store, cfg, p, &Obs::noop()).0
}

/// Like [`cluster_parallel`], additionally returning the master's
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

/// [`cluster_parallel_obs`] under a deterministic
/// [`FaultPlan`](pace_mpisim::FaultPlan): messages between ranks may be
/// dropped, delayed, or silenced by an injected crash, and the master's
/// timeout/retry/reassignment machinery recovers. With an empty plan
/// this *is* `cluster_parallel_obs`.
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
    let num_slaves = p - 1;
    let total_span = obs.span(metric::PHASE_TOTAL);

    // Pack once, share read-only across every slave's alignment context.
    let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
    let packed_ref = packed.as_ref();

    let under_faults = !plan.is_empty();
    let outputs = run_world_obs(p, plan, obs, |rank| {
        if rank.rank() == 0 {
            master_rank(&rank, store, cfg, num_slaves, under_faults, obs)
        } else {
            slave_rank(&rank, store, packed_ref, cfg, num_slaves, obs)
        }
    });

    total_span.finish();
    fold_outputs(outputs, obs)
}

/// Fold per-rank outputs into one result. Shared by the thread backend
/// (outputs from the world join) and the socket backend (the master's
/// own output plus received [`Msg::Summary`] messages).
fn fold_outputs(outputs: Vec<RankOutput>, obs: &Obs) -> (ClusterResult, MergeTrace) {
    let mut labels = Vec::new();
    let mut num_clusters = 0;
    let mut stats = ClusterStats::default();
    let mut trace = MergeTrace::new();
    let mut generated_total = 0u64;
    let mut unconsumed_total = 0u64;
    let mut prefiltered_total = 0u64;
    let mut ws_reuses_total = 0u64;
    let mut worker_injected = FaultSnapshot::default();
    for out in outputs {
        match out {
            RankOutput::Master {
                labels: l,
                num_clusters: k,
                stats: s,
                trace: t,
                busy_frac,
                comm,
                injected,
                dead: _,
                early_summaries,
            } => {
                labels = l;
                num_clusters = k;
                trace = t;
                // Master-side `pairs_generated` counts pairs *received*
                // in reports; the slave generator totals replace it
                // below, with the shortfall becoming `faults.lost_pairs`.
                stats.pairs_processed = s.pairs_processed;
                stats.pairs_accepted = s.pairs_accepted;
                stats.pairs_skipped = s.pairs_skipped;
                stats.merges = s.merges;
                stats.faults = s.faults;
                stats.master_busy_frac = busy_frac;
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
                debug_assert!(
                    early_summaries.is_empty(),
                    "early summaries must be folded into RankOutput::Slave by the caller"
                );
            }
            RankOutput::Slave { summary } => {
                generated_total += summary.gen_emitted;
                unconsumed_total += summary.unconsumed;
                prefiltered_total += summary.prefiltered;
                ws_reuses_total += summary.ws_reuses;
                worker_injected.dropped += summary.injected_drops;
                worker_injected.delayed += summary.injected_delays;
                worker_injected.stalls += summary.injected_stalls;
            }
        }
    }
    // Pairs the generators emitted that were neither resolved by the
    // master (processed or skipped) nor still buffered on a slave were
    // lost to injected faults: dropped in flight, or held by a slave
    // that died. Folding them into `pairs_unconsumed` keeps `generated
    // == processed + skipped + unconsumed` exact under every schedule.
    // Fault-free runs — and drop/delay-only plans, whose every report
    // is eventually delivered via resend — have `lost == 0`, which the
    // tests assert as the non-tautological form of conservation.
    //
    // On the socket backend a crashed worker's summary never arrives,
    // so `generated_total` can undercount what the master actually
    // received; the max() restores conservation by crediting the
    // missing generator with exactly the pairs the master saw from it.
    let generated_total =
        generated_total.max(stats.pairs_processed + stats.pairs_skipped + unconsumed_total);
    let lost = generated_total
        .saturating_sub(stats.pairs_processed + stats.pairs_skipped + unconsumed_total);
    stats.faults.lost_pairs = lost;
    stats.pairs_generated = generated_total;
    stats.pairs_unconsumed = unconsumed_total + lost;
    stats.pairs_prefiltered = prefiltered_total;
    // Per-process injector counters shipped in worker summaries (zero on
    // the thread backend, whose counters are world-shared).
    let reg = obs.registry();
    reg.add(metric::FAULTS_INJECTED_DROPS, worker_injected.dropped);
    reg.add(metric::FAULTS_INJECTED_DELAYS, worker_injected.delayed);
    reg.add(metric::FAULTS_INJECTED_STALLS, worker_injected.stalls);
    // Every result the master folded in came off a slave's long-lived
    // workspace, so this equals `pairs.processed` by construction.
    reg.add(metric::ALIGN_WS_REUSES, ws_reuses_total);
    record_cluster_counters(obs, &stats);
    obs.flush();

    (
        ClusterResult {
            labels,
            num_clusters,
            stats,
        },
        trace,
    )
}

/// Copies of a worker's final [`Msg::Summary`] sent when a fault plan is
/// active — like `Shutdown`, the summary has no acknowledgement, so
/// bounded redundancy carries it past bounded per-channel drop rules.
const SUMMARY_REDUNDANCY: usize = 3;

/// Run rank 0 of the protocol over a caller-supplied transport-backed
/// [`Rank`] — the multi-process entry point. The caller (the launcher)
/// builds the world: a [`pace_mpisim::UdsHub`] wrapped by `rank`, with
/// one [`cluster_worker_transport`] process per remaining rank.
///
/// After the protocol completes, worker summaries are collected as
/// [`Msg::Summary`] messages within a bounded window (crashed workers
/// never send one); the fold tolerates missing summaries by crediting
/// the absent generator with exactly the pairs the master received from
/// it, keeping flow conservation exact.
pub fn cluster_master_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    assert_eq!(rank.rank(), 0, "the master must run on rank 0");
    let num_slaves = rank.size() - 1;
    let total_span = obs.span(metric::PHASE_TOTAL);

    let mut out = master_rank(rank, store, cfg, num_slaves, under_faults, obs);
    let RankOutput::Master {
        dead,
        early_summaries,
        ..
    } = &mut out
    else {
        unreachable!()
    };
    let dead = std::mem::take(dead);
    let mut summaries: Vec<Option<WorkerSummary>> = vec![None; num_slaves];
    let mut received = 0usize;
    for (slave, s) in early_summaries.drain(..) {
        if slave < num_slaves && summaries[slave].is_none() {
            summaries[slave] = Some(s);
            received += 1;
        }
    }

    // Collect the remaining summaries. Only slaves the master did not
    // declare dead are expected; the deadline bounds the wait if one of
    // them dies between its Shutdown and its summary.
    let expected = dead.iter().filter(|d| !**d).count();
    let window = (cfg.slave_timeout * (f64::from(cfg.max_retries) + 1.0)).clamp(1.0, 10.0);
    let deadline = Instant::now() + Duration::from_secs_f64(window);
    while received < expected {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let poll = (deadline - now).min(Duration::from_millis(50));
        match rank.recv_timeout(poll) {
            Ok(Some((from, Msg::Summary(s)))) if from >= 1 => {
                let slave = from - 1;
                if slave < num_slaves && summaries[slave].is_none() {
                    summaries[slave] = Some(s);
                    received += 1;
                }
            }
            // Stray duplicate reports from resend redundancy: ignore.
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }

    let mut outputs = vec![out];
    for (slave, summary) in summaries.into_iter().enumerate() {
        if let Some(summary) = summary {
            record_worker_phases(obs, slave + 1, &summary);
            outputs.push(RankOutput::Slave { summary });
        }
    }
    total_span.finish();
    fold_outputs(outputs, obs)
}

/// Run one worker rank of the protocol over a caller-supplied
/// transport-backed [`Rank`]: partitioning collectives, forest build,
/// the slave loop, then the final [`Msg::Summary`] (skipped when an
/// injected crash severed the connection — the master's fold tolerates
/// the gap). Returns whether this rank crashed, which the worker
/// process turns into its [`pace_mpisim::INJECTED_CRASH_EXIT`] status.
pub fn cluster_worker_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> bool {
    cfg.validate().expect("invalid cluster config");
    assert!(rank.rank() >= 1, "workers run on ranks 1..size");
    let num_slaves = rank.size() - 1;
    let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
    let out = slave_rank(rank, store, packed.as_ref(), cfg, num_slaves, obs);
    let RankOutput::Slave { mut summary } = out else {
        unreachable!()
    };
    let injected = rank.fault_stats();
    summary.injected_drops = injected.dropped;
    summary.injected_delays = injected.delayed;
    summary.injected_stalls = injected.stalls;
    if !rank.crashed() {
        let copies = if under_faults { SUMMARY_REDUNDANCY } else { 1 };
        for _ in 0..copies {
            rank.send(0, Msg::Summary(summary.clone()));
        }
    }
    obs.flush();
    rank.crashed()
}

fn master_rank(
    rank: &pace_mpisim::Rank<Msg>,
    store: &SequenceStore,
    cfg: &ClusterConfig,
    num_slaves: usize,
    under_faults: bool,
    obs: &Obs,
) -> RankOutput {
    // Participate in the partitioning collectives with a zero
    // contribution (the master holds no input share).
    let span = obs.span_on(metric::PHASE_PARTITIONING, 0);
    let zeros = vec![0u64; num_buckets(cfg.window_w)];
    let _global_counts = rank.allreduce_sum(&zeros);
    span.finish();
    rank.barrier(); // slaves finish building their forests

    let mut master = Master::new(store.num_ests(), num_slaves, cfg.clone());
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
                    tracer.flow(TraceKind::FlowStart, 0, t, id);
                    tracer.instant(0, T_DISPATCH, t, id, pairs.len() as u64);
                });
            }
            // Shutdown has no ack; under a fault plan, bounded
            // redundancy carries it past the bounded drop rules.
            let copies = match (&reply, under_faults) {
                (Msg::Shutdown, true) => SHUTDOWN_REDUNDANCY,
                _ => 1,
            };
            for _ in 1..copies {
                rank.send(slave + 1, reply.clone());
            }
            rank.send(slave + 1, reply);
        }
    };
    let loop_t0 = obs.now();
    let mut busy = Timer::new();
    let mut reports = 0u64;
    let mut merges_emitted = 0usize;
    let mut hb_last_t = loop_t0;
    let mut hb_last_processed = 0u64;
    // Socket backend: a worker that got its Shutdown can send its final
    // summary while we are still shutting the others down.
    let mut early_summaries: Vec<(usize, WorkerSummary)> = Vec::new();
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
                        debug_assert!(from >= 1);
                        got_report = true;
                        let t0_us = obs.trace_enabled().then(|| obs.now_us());
                        send_replies(master.handle_report(
                            from - 1,
                            seq,
                            results,
                            pairs,
                            exhausted,
                            obs.now(),
                        ));
                        if let Some(t0) = t0_us {
                            obs.trace_with(|tracer| {
                                let end = obs.now_us();
                                // The span covers both folding the report
                                // in and dispatching its successor, so the
                                // flow end and the next flow start land
                                // inside it.
                                tracer.span(
                                    0,
                                    T_HANDLE_REPORT,
                                    t0,
                                    end.saturating_sub(t0),
                                    flow_id(from - 1, seq),
                                    seq,
                                );
                                tracer.flow(TraceKind::FlowEnd, 0, t0, flow_id(from - 1, seq));
                            });
                        }
                    }
                    Msg::Summary(s) => {
                        debug_assert!(from >= 1);
                        early_summaries.push((from - 1, s));
                    }
                    other => unreachable!("master received {}", other.kind()),
                }
                busy.stop();
            }
            Ok(None) => {}
            Err(_) => {
                // The world is tearing down: every slave is gone (a
                // crashed run, or an external abort). Settle the books
                // and stop instead of waiting on messages that can
                // never arrive.
                master.handle_world_down();
            }
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
                        format!("slave {slave} seq {seq} retry {retry}"),
                    ),
                    FaultNote::DeadSlave { slave, reassigned } => (
                        "dead_slave",
                        None,
                        format!("slave {slave}, {reassigned} pairs reassigned"),
                    ),
                    FaultNote::DuplicateReport { slave, seq } => (
                        "duplicate_report",
                        Some(seq),
                        format!("slave {slave} seq {seq}"),
                    ),
                    FaultNote::Abandoned { pairs } => {
                        ("abandoned", None, format!("{pairs} pairs, no live slaves"))
                    }
                };
                obs.trace_with(|tracer| {
                    tracer.instant(0, tracer.intern(kind), obs.now_us(), seq.unwrap_or(0), 0);
                });
                obs.emit_with(|| Event::Fault {
                    t: obs.now(),
                    rank: 0,
                    kind: kind.to_string(),
                    seq,
                    detail: detail.clone(),
                });
            }
        }
        if obs.events_enabled() {
            emit_merges(obs, &master.core.trace.records()[merges_emitted..]);
            merges_emitted = master.core.trace.len();

            reports += u64::from(got_report);
            if got_report && reports.is_multiple_of(HEARTBEAT_EVERY) {
                let now = obs.now();
                let elapsed = (now - loop_t0).max(f64::EPSILON);
                let processed = master.core.stats.pairs_processed;
                let dt = (now - hb_last_t).max(f64::EPSILON);
                obs.emit(Event::Heartbeat {
                    rank: 0,
                    t: now,
                    busy_frac: busy.secs() / elapsed,
                    pairs_per_sec: (processed - hb_last_processed) as f64 / dt,
                    processed,
                });
                hb_last_t = now;
                hb_last_processed = processed;
            }
        }
    }
    let loop_total = (obs.now() - loop_t0).max(f64::EPSILON);

    let dead = (0..num_slaves).map(|s| master.is_dead(s)).collect();
    let (result, trace) = master.core.into_result();
    RankOutput::Master {
        num_clusters: result.num_clusters,
        labels: result.labels,
        stats: result.stats,
        trace,
        busy_frac: busy.secs() / loop_total,
        comm: rank.stats(),
        injected: rank.fault_stats(),
        dead,
        early_summaries,
    }
}

fn slave_rank(
    rank: &pace_mpisim::Rank<Msg>,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    cfg: &ClusterConfig,
    num_slaves: usize,
    obs: &Obs,
) -> RankOutput {
    let slave_id = rank.rank() - 1;

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

    // Phases 3–4: the slave protocol (node sorting happens inside).
    let summary = run_slave_obs(rank, 0, store, packed, &forest, cfg, obs);
    RankOutput::Slave {
        summary: WorkerSummary {
            partitioning,
            gst_construction,
            ..summary
        },
    }
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
